//! Client ↔ daemon protocol for the Puddles system.
//!
//! `libpuddles` talks to `puddled` over a UNIX-domain socket (or an
//! in-process endpoint) using the request/response messages defined here.
//! The paper's daemon returns puddle file descriptors via
//! `sendmsg(SCM_RIGHTS)`; this reproduction returns the puddle's file path
//! instead (see the README's "Substitutions vs. the paper"), so the
//! protocol is plain data.
//!
//! # Wire format
//!
//! One framing, one handshake: a client writes the 4-byte
//! [`frame::V2_MAGIC`] preamble (`PUD3`) once, then length-prefixed
//! [`RequestEnvelope`] frames; the daemon answers each with a
//! [`ResponseEnvelope`] echoing its `req_id`, in completion order. The
//! first request is a [`Request::Hello`]. Frame bodies are the binary
//! [`codec`] the daemon's metadata WAL also writes: tag bytes and
//! fixed-width fields, no field names and no parsing of text. A peer of
//! another protocol generation is refused at the preamble, so nothing in
//! a body is optional. [`BlockingConn`] is the smallest client of that
//! protocol (tools and tests); `libpuddles`' pipelined endpoint is the
//! production one.
//!
//! JSON is left only where people and other programs read or write files
//! ([`json`]): export manifests, `puddle-stat --json` and torture failure
//! artifacts.

pub mod codec;
pub mod frame;
pub mod json;
pub mod types;

pub use codec::RequestKind;
pub use frame::{read_frame, write_frame};
pub use types::*;

/// A request sent from a client (`libpuddles`) to the daemon (`puddled`).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Introduces the client; must be the first message.
    Hello {
        /// The credentials the client claims. The daemon decides nothing
        /// on them: a socket connection runs as its kernel-verified peer
        /// credentials, an in-process endpoint as the ones it was made
        /// with.
        creds: Credentials,
        /// `true` when this `Hello` re-establishes a connection the client
        /// already had (retry/backoff path); counted as `client_reconnects`.
        reconnect: bool,
    },
    /// Allocates a new puddle of `size` bytes.
    CreatePuddle {
        /// Puddle size in bytes (multiple of the page size).
        size: u64,
        /// Pool to attach the puddle to, if any.
        pool: Option<String>,
        /// What the puddle will be used for.
        purpose: PuddlePurpose,
        /// Access mode bits for the new puddle (UNIX-like, e.g. 0o600).
        mode: u32,
    },
    /// Requests access to an existing puddle.
    GetPuddle {
        /// The puddle to open.
        id: PuddleId,
        /// Whether write access is requested.
        writable: bool,
    },
    /// Frees a puddle, removing it from its pool and deleting its backing
    /// file.
    FreePuddle {
        /// The puddle to free.
        id: PuddleId,
    },
    /// Creates a pool with a fresh root puddle.
    CreatePool {
        /// Pool name (unique per daemon).
        name: String,
        /// Size of the root puddle in bytes.
        root_size: u64,
        /// Access mode bits for the pool's puddles.
        mode: u32,
    },
    /// Opens an existing pool.
    OpenPool {
        /// Pool name.
        name: String,
    },
    /// Deletes a pool and all of its puddles.
    DropPool {
        /// Pool name.
        name: String,
    },
    /// Registers a puddle as the client's log space (§4.1).
    RegLogSpace {
        /// The log-space puddle.
        puddle: PuddleId,
    },
    /// Registers (or re-registers) a pointer map for a persistent type.
    RegisterPtrMap {
        /// Declaration of the type's pointer fields.
        decl: PtrMapDecl,
    },
    /// Fetches every registered pointer map.
    GetPtrMaps,
    /// Exports a pool (its puddles plus metadata manifest) to a directory.
    ExportPool {
        /// Pool name.
        name: String,
        /// Destination directory (created if missing).
        dest: String,
    },
    /// Imports a previously exported pool under a new name.
    ImportPool {
        /// Directory containing the export manifest.
        src: String,
        /// Name for the imported pool.
        new_name: String,
    },
    /// Returns relocation information for a puddle (whether its pointers
    /// still need rewriting, and the old→new address translations to use).
    GetRelocation {
        /// The puddle being mapped.
        id: PuddleId,
    },
    /// Records that the client finished rewriting a puddle's pointers.
    MarkRewritten {
        /// The rewritten puddle.
        id: PuddleId,
    },
    /// Runs crash recovery immediately (normally done at daemon start).
    Recover,
    /// Returns the daemon's latency histograms and counters: the one way
    /// its state — table sizes, space, the WAL tail, sweeps, connections —
    /// leaves the daemon.
    GetMetrics,
    /// A no-op round trip, used to measure daemon latency (§5.1).
    Ping,
}

/// A response from the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Reply to `Hello`: where this machine's global puddle space lives.
    /// Every connection may pipeline up to the daemon's fixed window of 64
    /// requests.
    Welcome {
        /// Base virtual address of the global puddle space.
        space_base: u64,
        /// Size of the global puddle space in bytes.
        space_size: u64,
    },
    /// A puddle was created or opened.
    Puddle(PuddleInfo),
    /// Pool metadata.
    Pool(PoolInfo),
    /// Registered pointer maps.
    PtrMaps(Vec<PtrMapDecl>),
    /// Result of an import: the new pool plus address translations.
    Imported {
        /// The freshly registered pool.
        pool: PoolInfo,
        /// Old→new address translations for every imported puddle.
        translations: Vec<Translation>,
    },
    /// Relocation state of a puddle.
    Relocation {
        /// `true` if the client must rewrite pointers before use.
        needs_rewrite: bool,
        /// Address translations to apply while rewriting.
        translations: Vec<Translation>,
    },
    /// Outcome of a recovery pass.
    Recovered(RecoveryReport),
    /// Histogram snapshots and counters (reply to `GetMetrics`).
    Metrics(MetricsReport),
    /// The request failed.
    Error {
        /// Machine-readable error category.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

/// A request frame: a client-assigned id plus the request.
///
/// Ids are chosen by the client (any `u64`; monotonically increasing in
/// practice) and echoed back verbatim in the matching [`ResponseEnvelope`].
/// The daemon may complete and write responses in any order, so the id is
/// the only way to pair a response with its request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Client-assigned request id, echoed in the response.
    pub req_id: u64,
    /// The wrapped request.
    pub req: Request,
}

/// A response frame: the echoed id plus the response.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseEnvelope {
    /// The id of the request this response answers.
    pub req_id: u64,
    /// The wrapped response.
    pub resp: Response,
}

/// A daemon→client frame as a client must parse it.
///
/// Every frame after the handshake is a [`ResponseEnvelope`], but the
/// daemon emits one bare [`Response`] to a connection it turns away before
/// reading any request id from it: the `Busy` rejection at the connection
/// cap, or `InvalidRequest` to a peer that did not open with the preamble.
/// The frame's first byte says which of the two follows; an encoded
/// [`ResponseEnvelope`] starts with the envelope's byte, so it decodes as
/// [`ServerFrame::Enveloped`] as it is.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// An id-tagged response.
    Enveloped(ResponseEnvelope),
    /// A bare response (a pre-handshake rejection).
    Bare(Response),
}

impl Request {
    /// A `Hello` on a fresh, first-time connection.
    pub fn hello(creds: Credentials) -> Request {
        Request::Hello {
            creds,
            reconnect: false,
        }
    }
}

impl RequestKind {
    /// Whether a client may resend a request of this kind when its
    /// connection dies *after* the request was written but before the
    /// response arrived: reads, and writes whose re-application lands on
    /// the same state (registrations are keyed puts, `MarkRewritten` clears
    /// an already-clear flag, an export overwrites its own output).
    /// Creates, frees, drops and imports are **not** resent: the daemon may
    /// have applied one and lost only the acknowledgement, and a resend
    /// would apply it twice.
    pub const fn idempotent(self) -> bool {
        match self {
            RequestKind::Hello
            | RequestKind::Ping
            | RequestKind::GetPuddle
            | RequestKind::OpenPool
            | RequestKind::GetPtrMaps
            | RequestKind::RegisterPtrMap
            | RequestKind::RegLogSpace
            | RequestKind::GetRelocation
            | RequestKind::MarkRewritten
            | RequestKind::ExportPool
            | RequestKind::Recover
            | RequestKind::GetMetrics => true,
            RequestKind::CreatePuddle
            | RequestKind::FreePuddle
            | RequestKind::CreatePool
            | RequestKind::DropPool
            | RequestKind::ImportPool => false,
        }
    }
}

impl Response {
    /// Converts an error response into `Err`, passing others through.
    pub fn into_result(self) -> Result<Response, ProtoError> {
        match self {
            Response::Error { code, message } => Err(ProtoError { code, message }),
            other => Ok(other),
        }
    }
}

/// A daemon-reported failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Machine-readable error category.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "daemon error ({:?}): {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// A bidirectional request/response channel to the daemon.
///
/// Implemented by the in-process endpoint (`puddled::LocalEndpoint`, handed
/// out through [`LocalDaemon`]) and by the UNIX-domain-socket client
/// (`puddles::transport::PipelinedEndpoint`). The client library reaches
/// the daemon only through this trait, so it does not link the daemon.
pub trait Endpoint: Send + Sync {
    /// Sends one request and waits for its response.
    fn call(&self, req: &Request) -> std::io::Result<Response>;
}

/// A daemon running in the client's own process: what
/// `puddles::PuddleClient::connect_local` needs of it. Implemented by
/// `puddled::Daemon`.
pub trait LocalDaemon {
    /// The daemon's global puddle space (`puddles_pmem::space::GlobalSpace`;
    /// an associated type because this crate depends on nothing).
    type Space;
    /// An endpoint whose requests run as `creds`.
    fn endpoint(&self, creds: Credentials) -> Box<dyn Endpoint>;
    /// The global space the daemon reserved, for the client to share.
    fn space(&self) -> std::sync::Arc<Self::Space>;
}

/// A blocking connection to the daemon over any byte stream: the preamble
/// and an enveloped `Hello`, then enveloped round trips.
///
/// This is the whole client side of the wire protocol in its smallest
/// form, for tools and tests (`puddle-stat`, bench drivers, raw-socket
/// tests). [`BlockingConn::call`] keeps one request in flight;
/// [`BlockingConn::send`] / [`BlockingConn::recv`] let a single thread
/// pipeline under ids it picks itself.
#[derive(Debug)]
pub struct BlockingConn<S> {
    stream: S,
    next_id: u64,
}

impl<S: std::io::Read + std::io::Write> BlockingConn<S> {
    /// Opens the protocol on a freshly connected `stream`: writes the
    /// [`frame::V2_MAGIC`] preamble and `hello` (request id 0) and checks
    /// that the daemon answers [`Response::Welcome`].
    pub fn handshake(mut stream: S, hello: Request) -> std::io::Result<Self> {
        stream.write_all(&frame::V2_MAGIC)?;
        let mut conn = BlockingConn { stream, next_id: 0 };
        match conn.call(hello)? {
            Response::Welcome { .. } => Ok(conn),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected handshake reply: {other:?}"),
            )),
        }
    }

    /// Sends one request under a caller-chosen id without waiting for its
    /// response.
    pub fn send(&mut self, req_id: u64, req: Request) -> std::io::Result<()> {
        write_frame(&mut self.stream, &RequestEnvelope { req_id, req })
    }

    /// Reads the next response, whichever request it answers. A bare frame
    /// (the daemon turning the connection away) is an error carrying the
    /// daemon's message.
    pub fn recv(&mut self) -> std::io::Result<(u64, Response)> {
        match read_frame::<_, ServerFrame>(&mut self.stream)? {
            ServerFrame::Enveloped(env) => Ok((env.req_id, env.resp)),
            ServerFrame::Bare(resp) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("connection rejected: {resp:?}"),
            )),
        }
    }

    /// One round trip. Must not be mixed with responses still outstanding
    /// from [`BlockingConn::send`]: the next frame read has to be this
    /// request's.
    pub fn call(&mut self, req: Request) -> std::io::Result<Response> {
        let req_id = self.next_id;
        self.next_id += 1;
        self.send(req_id, req)?;
        let (got, resp) = self.recv()?;
        if got != req_id {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("response for req_id {got} while waiting on {req_id}"),
            ));
        }
        Ok(resp)
    }

    /// The underlying stream, for callers that need to write raw bytes
    /// (split frames, half-close) or set socket options.
    pub fn stream(&mut self) -> &mut S {
        &mut self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frame::{decode_frame, encode_frame};

    fn decode_body<T: codec::Wire>(bytes: &[u8]) -> std::io::Result<T> {
        decode_frame(&bytes[4..])
    }

    #[test]
    fn response_error_into_result() {
        let ok = Response::Ok.into_result().unwrap();
        assert_eq!(ok, Response::Ok);
        let err = Response::Error {
            code: ErrorCode::PermissionDenied,
            message: "nope".into(),
        }
        .into_result()
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::PermissionDenied);
    }

    /// An encoded envelope is an enveloped server frame as it is; a bare
    /// response is one only with the bare discriminator in front, and is
    /// never taken for an envelope.
    #[test]
    fn server_frame_distinguishes_envelopes_from_bare_responses() {
        let env = ResponseEnvelope {
            req_id: 7,
            resp: Response::Welcome {
                space_base: 0x1000,
                space_size: 0x2000,
            },
        };
        let bytes = encode_frame(&env).unwrap();
        let frame: ServerFrame = decode_body(&bytes).unwrap();
        assert_eq!(frame, ServerFrame::Enveloped(env));

        for bare in [
            Response::Error {
                code: ErrorCode::Busy,
                message: "connection limit reached".into(),
            },
            Response::Ok,
        ] {
            let bytes = encode_frame(&ServerFrame::Bare(bare.clone())).unwrap();
            let frame: ServerFrame = decode_body(&bytes).unwrap();
            assert_eq!(frame, ServerFrame::Bare(bare));
            let err = decode_body::<ResponseEnvelope>(&bytes).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }
}
