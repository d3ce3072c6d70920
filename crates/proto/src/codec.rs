//! The one binary codec: fixed-width little-endian fields behind one-byte
//! variant tags. The daemon's metadata WAL writes its records with these
//! helpers and every wire message implements [`Wire`] with them, so the
//! socket and the disk share one encoding of the same data.
//!
//! An integer is little-endian at its width; a `bool` is one byte, 0 or 1;
//! a string is a `u32` byte length then UTF-8; an `Option` is a `bool` then
//! the value; a `Vec` is a `u32` count then the elements; a struct is its
//! fields in declaration order; an enum is a tag byte then its variant's
//! fields. Decoding is bounds-checked and never allocates more than the
//! input holds: a count sizes a buffer only up to 1024 elements.
//!
//! The [`PuddlePurpose`] and [`PtrMapDecl`] encodings are on disk (WAL
//! records): never renumber or reorder them.

use crate::types::*;
use crate::{Request, RequestEnvelope, Response, ResponseEnvelope, ServerFrame};

/// Appends `v` as 4 little-endian bytes.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as 8 little-endian bytes.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as 16 little-endian bytes.
pub fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s` as its `u32` byte length, then its UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked sequential reader over an encoded buffer. Every read is
/// `None` past the end, so a truncated input fails where it runs out.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// The next `n` bytes, if that many remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(slice)
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let bytes = self.take(4)?.try_into().expect("took 4 bytes");
        Some(u32::from_le_bytes(bytes))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let bytes = self.take(8)?.try_into().expect("took 8 bytes");
        Some(u64::from_le_bytes(bytes))
    }

    /// A little-endian `u128`.
    pub fn u128(&mut self) -> Option<u128> {
        let bytes = self.take(16)?.try_into().expect("took 16 bytes");
        Some(u128::from_le_bytes(bytes))
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// A byte that must be 0 or 1.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Whether every byte has been read.
    pub fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// A value with a binary encoding (see the module docs for the rules).
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value at the reader's position; `None` if the bytes are
    /// not one.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.u64()
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.bool()
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.string()
    }
}

impl Wire for PuddleId {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u128(out, self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.u128().map(PuddleId)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(v) = self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(if r.bool()? { Some(T::decode(r)?) } else { None })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        self.iter().for_each(|v| v.encode(out));
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.u32()? as usize;
        let mut items = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            items.push(T::decode(r)?);
        }
        Some(items)
    }
}

/// Implements [`Wire`] for a struct: its fields in the order listed.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$field.encode(out);)*
            }
            fn decode(r: &mut Reader<'_>) -> Option<Self> {
                Some($ty { $($field: Wire::decode(r)?),* })
            }
        }
    };
}

/// Implements [`Wire`] for an enum: each variant's tag byte, then its
/// fields (named ones in the order listed, or one unnamed one).
/// The `Request as RequestKind` form also declares [`RequestKind`] from
/// the same list, so the tag list *is* the kind list.
macro_rules! wire_enum {
    ($ty:ident as $kind:ident { $($tag:literal => $var:ident $({ $($field:ident),* })?),* $(,)? }) => {
        wire_enum!($ty { $($tag => $var $({ $($field),* })?),* });

        /// What kind of [`Request`] one is, without its fields: one variant
        /// per wire tag, whose discriminant is that tag. Everything the
        /// daemon and the client decide per kind (its trace name and
        /// `service.<name>` series, its lane, whether it is resent) is an
        /// exhaustive match on this, so a new request cannot compile until
        /// each of those has an answer for it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $kind {
            $(#[doc = concat!("[`", stringify!($ty), "::", stringify!($var), "`].")]
            $var = $tag,)*
        }

        impl $kind {
            /// Every kind, in tag order: `ALL[k as usize] == k`.
            pub const ALL: [$kind; [$($tag),*].len()] = [$($kind::$var),*];

            /// The variant's name: the request's name in trace events and
            /// in its `service.<name>` latency series.
            pub const fn name(self) -> &'static str {
                match self {
                    $($kind::$var => stringify!($var),)*
                }
            }
        }

        impl $ty {
            /// This request's kind.
            pub fn kind(&self) -> $kind {
                match self {
                    $($ty::$var { .. } => $kind::$var,)*
                }
            }
        }
    };
    ($ty:ident { $($tag:literal => $var:ident $({ $($field:ident),* })? $(($inner:ident))?),* $(,)? }) => {
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$var $({ $($field),* })? $(($inner))? => {
                        out.push($tag);
                        $($($field.encode(out);)*)?
                        $($inner.encode(out);)?
                    })*
                }
            }
            fn decode(r: &mut Reader<'_>) -> Option<Self> {
                Some(match r.u8()? {
                    $($tag => $ty::$var
                        $({ $($field: Wire::decode(r)?),* })?
                        $(({ let $inner = Wire::decode(r)?; $inner }))?,)*
                    _ => return None,
                })
            }
        }
    };
}

wire_enum!(PuddlePurpose { 0 => Data, 1 => Log, 2 => LogSpace });
wire_struct!(PtrField {
    offset,
    target_type
});
wire_struct!(PtrMapDecl {
    type_id,
    type_name,
    size,
    fields
});
wire_struct!(Credentials { uid, gid });
wire_struct!(PuddleInfo {
    id,
    size,
    assigned_addr,
    path,
    purpose,
    owner_uid,
    owner_gid,
    mode,
    needs_rewrite,
    writable,
});
wire_struct!(PoolInfo {
    name,
    root_puddle,
    puddles
});
wire_struct!(Translation {
    old_addr,
    new_addr,
    len
});
wire_struct!(RecoveryReport {
    log_spaces,
    logs,
    entries_applied,
    entries_denied,
    logs_clean,
    logs_invalidated,
    chained_logs,
    chain_tails_reclaimed,
    puddles_mapped,
});
wire_struct!(SeriesSnapshot {
    name,
    count,
    sum_nanos,
    p50_nanos,
    p90_nanos,
    p99_nanos,
    max_nanos,
});
wire_struct!(CounterSnapshot { name, value });
wire_struct!(MetricsReport {
    series,
    counters,
    trace_buffered,
    trace_dropped,
});
wire_enum!(ErrorCode {
    0 => NotFound,
    1 => AlreadyExists,
    2 => PermissionDenied,
    3 => InvalidRequest,
    4 => OutOfSpace,
    5 => Internal,
    6 => Busy,
});

wire_enum!(Request as RequestKind {
    0 => Hello { creds, reconnect },
    1 => CreatePuddle { size, pool, purpose, mode },
    2 => GetPuddle { id, writable },
    3 => FreePuddle { id },
    4 => CreatePool { name, root_size, mode },
    5 => OpenPool { name },
    6 => DropPool { name },
    7 => RegLogSpace { puddle },
    8 => RegisterPtrMap { decl },
    9 => GetPtrMaps,
    10 => ExportPool { name, dest },
    11 => ImportPool { src, new_name },
    12 => GetRelocation { id },
    13 => MarkRewritten { id },
    14 => Recover,
    15 => GetMetrics,
    16 => Ping,
});

wire_enum!(Response {
    0 => Ok,
    1 => Welcome { space_base, space_size },
    2 => Puddle(info),
    3 => Pool(info),
    4 => PtrMaps(maps),
    5 => Imported { pool, translations },
    6 => Relocation { needs_rewrite, translations },
    7 => Recovered(report),
    8 => Metrics(report),
    9 => Error { code, message },
});

wire_struct!(RequestEnvelope { req_id, req });

/// [`ServerFrame`]'s first byte: an id-tagged response follows.
const ENVELOPED: u8 = 0;
/// [`ServerFrame`]'s first byte: a bare response follows.
const BARE: u8 = 1;

/// A response envelope opens with [`ServerFrame`]'s discriminator, so every
/// encoded envelope already is an encoded server frame.
impl Wire for ResponseEnvelope {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(ENVELOPED);
        self.req_id.encode(out);
        self.resp.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match ServerFrame::decode(r)? {
            ServerFrame::Enveloped(env) => Some(env),
            ServerFrame::Bare(_) => None,
        }
    }
}

impl Wire for ServerFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServerFrame::Enveloped(env) => env.encode(out),
            ServerFrame::Bare(resp) => {
                out.push(BARE);
                resp.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            ENVELOPED => ServerFrame::Enveloped(ResponseEnvelope {
                req_id: Wire::decode(r)?,
                resp: Wire::decode(r)?,
            }),
            BARE => ServerFrame::Bare(Wire::decode(r)?),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, encode_frame};
    use std::io::ErrorKind;

    fn decl() -> PtrMapDecl {
        PtrMapDecl {
            type_id: 42,
            type_name: "crate::Node<ü>".into(),
            size: 24,
            fields: vec![
                PtrField {
                    offset: 8,
                    target_type: 42,
                },
                PtrField {
                    offset: 16,
                    target_type: 0,
                },
            ],
        }
    }

    /// One of every `Request` variant, in tag order.
    fn requests() -> Vec<Request> {
        let id = PuddleId(0xdead_beef_dead_beef_dead_beef_dead_beef);
        vec![
            Request::Hello {
                creds: Credentials {
                    uid: 1000,
                    gid: 100,
                },
                reconnect: true,
            },
            Request::CreatePuddle {
                size: 2 << 20,
                pool: Some("p".into()),
                purpose: PuddlePurpose::LogSpace,
                mode: 0o600,
            },
            Request::GetPuddle { id, writable: true },
            Request::FreePuddle { id },
            Request::CreatePool {
                name: "pool-ü".into(),
                root_size: 1 << 20,
                mode: 0o640,
            },
            Request::OpenPool {
                name: String::new(),
            },
            Request::DropPool { name: "p".into() },
            Request::RegLogSpace { puddle: id },
            Request::RegisterPtrMap { decl: decl() },
            Request::GetPtrMaps,
            Request::ExportPool {
                name: "p".into(),
                dest: "/tmp/out".into(),
            },
            Request::ImportPool {
                src: "/tmp/out".into(),
                new_name: "q".into(),
            },
            Request::GetRelocation { id },
            Request::MarkRewritten { id },
            Request::Recover,
            Request::GetMetrics,
            Request::Ping,
        ]
    }

    /// One of every `Response` variant, in tag order.
    fn responses() -> Vec<Response> {
        let id = PuddleId(u128::MAX);
        let pool = PoolInfo {
            name: "p".into(),
            root_puddle: id,
            puddles: vec![id, PuddleId(1)],
        };
        let translations = vec![Translation {
            old_addr: 0x1000,
            new_addr: 0x9000,
            len: 0x100,
        }];
        vec![
            Response::Ok,
            Response::Welcome {
                space_base: 0x5000_0000_0000,
                space_size: 1 << 40,
            },
            Response::Puddle(PuddleInfo {
                id,
                size: 4096,
                assigned_addr: 0x5000_0000_0000,
                path: "/tmp/x".into(),
                purpose: PuddlePurpose::Log,
                owner_uid: 0,
                owner_gid: 0,
                mode: 0o640,
                needs_rewrite: true,
                writable: false,
            }),
            Response::Pool(pool.clone()),
            Response::PtrMaps(vec![decl(), decl()]),
            Response::Imported {
                pool,
                translations: translations.clone(),
            },
            Response::Relocation {
                needs_rewrite: true,
                translations,
            },
            Response::Recovered(RecoveryReport {
                log_spaces: 1,
                logs: 2,
                entries_applied: 3,
                entries_denied: 4,
                logs_clean: 5,
                logs_invalidated: 6,
                chained_logs: 7,
                chain_tails_reclaimed: 8,
                puddles_mapped: 9,
            }),
            Response::Metrics(MetricsReport {
                series: vec![SeriesSnapshot {
                    name: "service.Ping".into(),
                    count: 3,
                    sum_nanos: 300,
                    p50_nanos: 100,
                    p90_nanos: 110,
                    p99_nanos: 120,
                    max_nanos: 118,
                }],
                counters: vec![CounterSnapshot {
                    name: "uds.inline".into(),
                    value: u64::MAX,
                }],
                trace_buffered: 9,
                trace_dropped: 1,
            }),
            Response::Error {
                code: ErrorCode::Busy,
                message: "connection limit reached".into(),
            },
        ]
    }

    /// How a frame body is decoded: by the daemon as a request, or by a
    /// client as a server frame.
    #[derive(Debug, Clone, Copy)]
    enum Side {
        Daemon,
        Client,
    }

    /// Every frame body a client or the daemon can send, with the side that
    /// decodes it: each request in an envelope, each response in an
    /// envelope and bare.
    fn frame_bodies() -> Vec<(Side, Vec<u8>)> {
        let body = |bytes: Vec<u8>| bytes[4..].to_vec();
        let reqs = requests().into_iter().enumerate().map(|(i, req)| {
            let env = RequestEnvelope {
                req_id: i as u64,
                req,
            };
            (Side::Daemon, body(encode_frame(&env).unwrap()))
        });
        let resps = responses().into_iter().flat_map(|resp| {
            let env = ResponseEnvelope {
                req_id: u64::MAX,
                resp: resp.clone(),
            };
            let bare = ServerFrame::Bare(resp);
            [
                (Side::Client, body(encode_frame(&env).unwrap())),
                (Side::Client, body(encode_frame(&bare).unwrap())),
            ]
        });
        reqs.chain(resps).collect()
    }

    fn decode(side: Side, body: &[u8]) -> std::io::Result<()> {
        match side {
            Side::Daemon => decode_frame::<RequestEnvelope>(body).map(drop),
            Side::Client => decode_frame::<ServerFrame>(body).map(drop),
        }
    }

    fn assert_invalid(side: Side, body: &[u8], what: &str) {
        let err = decode(side, body).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}");
    }

    #[test]
    fn every_variant_roundtrips_in_a_frame() {
        let reqs = requests();
        let tags: Vec<u8> = reqs
            .iter()
            .map(|req| encode_frame(req).unwrap()[4])
            .collect();
        assert_eq!(tags, (0..17).collect::<Vec<u8>>(), "one request per tag");
        for (i, req) in reqs.into_iter().enumerate() {
            let env = RequestEnvelope {
                req_id: i as u64,
                req,
            };
            let bytes = encode_frame(&env).unwrap();
            assert_eq!(decode_frame::<RequestEnvelope>(&bytes[4..]).unwrap(), env);
        }
        let resps = responses();
        let tags: Vec<u8> = resps
            .iter()
            .map(|resp| encode_frame(resp).unwrap()[4])
            .collect();
        assert_eq!(tags, (0..10).collect::<Vec<u8>>(), "one response per tag");
        for resp in resps {
            let env = ResponseEnvelope {
                req_id: 3,
                resp: resp.clone(),
            };
            let bytes = encode_frame(&env).unwrap();
            assert_eq!(decode_frame::<ResponseEnvelope>(&bytes[4..]).unwrap(), env);
            let frame: ServerFrame = decode_frame(&bytes[4..]).unwrap();
            assert_eq!(frame, ServerFrame::Enveloped(env));
            let bare = ServerFrame::Bare(resp);
            let bytes = encode_frame(&bare).unwrap();
            assert_eq!(decode_frame::<ServerFrame>(&bytes[4..]).unwrap(), bare);
        }
    }

    /// The kind table is the tag list: one sample of every tag, in tag
    /// order, is one of every kind, in `ALL`'s order, and each kind's
    /// discriminant is the tag its sample encodes to.
    #[test]
    fn request_kinds_are_the_wire_tags_in_order() {
        let reqs = requests();
        let kinds: Vec<RequestKind> = reqs.iter().map(Request::kind).collect();
        assert_eq!(kinds, RequestKind::ALL);
        for (req, kind) in reqs.iter().zip(RequestKind::ALL) {
            assert_eq!(encode_frame(req).unwrap()[4], kind as u8, "{kind:?}");
            assert_eq!(format!("{kind:?}"), kind.name());
        }
    }

    /// The daemon decodes frames from any peer: a short body, a trailing
    /// byte or an unknown tag is an `InvalidData` error, never a panic and
    /// never a partial message.
    #[test]
    fn hostile_frame_bodies_are_invalid_data() {
        for (side, body) in frame_bodies() {
            decode(side, &body).unwrap();
            for cut in 0..body.len() {
                assert_invalid(side, &body[..cut], &format!("prefix {cut} of {body:?}"));
            }
            let mut long = body.clone();
            long.push(0);
            assert_invalid(side, &long, &format!("trailing byte after {body:?}"));
        }
        let ping = encode_frame(&RequestEnvelope {
            req_id: 1,
            req: Request::Ping,
        })
        .unwrap();
        for tag in 17..=u8::MAX {
            let mut body = ping[4..].to_vec();
            body[8] = tag;
            assert_invalid(Side::Daemon, &body, &format!("request tag {tag}"));
        }
        for first in 2..=u8::MAX {
            assert_invalid(
                Side::Client,
                &[first, 0],
                &format!("server frame byte {first}"),
            );
        }
        for tag in 10..=u8::MAX {
            let mut body = vec![BARE, tag];
            body.extend_from_slice(&[0; 16]);
            assert_invalid(Side::Client, &body, &format!("response tag {tag}"));
        }
        // Out-of-range values inside a field: a bool, a purpose, an error
        // code, invalid UTF-8.
        let mut hello = ping[4..12].to_vec();
        hello.extend_from_slice(&[0, 1, 0, 0, 0, 2, 0, 0, 0, 2]);
        assert_invalid(Side::Daemon, &hello, "reconnect byte 2");
        let mut open = ping[4..12].to_vec();
        open.extend_from_slice(&[5, 2, 0, 0, 0, 0xc3, 0x28]);
        assert_invalid(Side::Daemon, &open, "a name that is not UTF-8");
        assert_invalid(Side::Client, &[BARE, 9, 7, 0, 0, 0, 0], "error code 7");
    }

    /// A count or a length the remaining bytes cannot hold fails before
    /// anything is sized by it: a `u32::MAX`-element reply would otherwise
    /// ask for hundreds of GiB and abort the process.
    #[test]
    fn counts_larger_than_the_body_fail_without_allocating_them() {
        let max = u32::MAX.to_le_bytes();
        // PtrMaps, Metrics (series), Pool (an empty name, the root, then
        // the members), Relocation (the table).
        let pool = [&[BARE, 3][..], &[0; 4 + 16]].concat();
        for prefix in [&[BARE, 4][..], &[BARE, 8], &pool, &[BARE, 6, 1]] {
            let mut body = prefix.to_vec();
            body.extend_from_slice(&max);
            body.extend_from_slice(&[0; 64]);
            assert_invalid(Side::Client, &body, &format!("count after {prefix:?}"));
        }
        let mut open = vec![0; 8];
        open.push(5);
        open.extend_from_slice(&max);
        assert_invalid(Side::Daemon, &open, "string length");
    }

    /// The two encodings the WAL stores, byte for byte: they must not move
    /// (`WAL_BINARY_VERSION` would have to).
    #[test]
    fn the_wal_encodings_are_pinned() {
        let bytes = |v: &dyn Fn(&mut Vec<u8>)| {
            let mut out = Vec::new();
            v(&mut out);
            out
        };
        assert_eq!(bytes(&|o| PuddlePurpose::Data.encode(o)), [0]);
        assert_eq!(bytes(&|o| PuddlePurpose::Log.encode(o)), [1]);
        assert_eq!(bytes(&|o| PuddlePurpose::LogSpace.encode(o)), [2]);
        let mut want = Vec::new();
        want.extend_from_slice(&42u64.to_le_bytes());
        want.extend_from_slice(&15u32.to_le_bytes());
        want.extend_from_slice("crate::Node<ü>".as_bytes());
        want.extend_from_slice(&24u64.to_le_bytes());
        want.extend_from_slice(&2u32.to_le_bytes());
        for (offset, target) in [(8u64, 42u64), (16, 0)] {
            want.extend_from_slice(&offset.to_le_bytes());
            want.extend_from_slice(&target.to_le_bytes());
        }
        assert_eq!(bytes(&|o| decl().encode(o)), want);
    }
}
