//! Client ↔ daemon protocol for the Puddles system.
//!
//! `libpuddles` talks to `puddled` over a UNIX-domain socket (or an
//! in-process endpoint) using the request/response messages defined here.
//! The paper's daemon returns puddle file descriptors via
//! `sendmsg(SCM_RIGHTS)`; this reproduction returns the puddle's file path
//! instead (see the README's "Substitutions vs. the paper"), so the
//! protocol is plain serde-serializable data.
//!
//! # Wire format
//!
//! One framing, one handshake: a client writes the 4-byte
//! [`frame::V2_MAGIC`] preamble (`PUD2`) once, then length-prefixed JSON
//! [`RequestEnvelope`] frames; the daemon answers each with a
//! [`ResponseEnvelope`] echoing its `req_id`, in completion order. The
//! first request is a [`Request::Hello`]. [`BlockingConn`] is the
//! smallest client of that protocol (tools and tests); `libpuddles`'
//! pipelined endpoint is the production one.

pub mod frame;
pub mod types;

pub use frame::{read_frame, write_frame};
pub use types::*;

use serde::{Deserialize, Serialize};

/// A request sent from a client (`libpuddles`) to the daemon (`puddled`).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum Request {
    /// Introduces the client and its credentials; must be the first message.
    Hello {
        /// Client credentials used for access-control decisions.
        creds: Credentials,
        /// Requested per-connection in-flight request window (pipelining).
        /// `0` asks for the server default; the server clamps to its
        /// configured maximum and reports the grant in `Welcome`.
        /// Defaulted so `Hello` frames from older clients still parse.
        #[serde(default)]
        max_in_flight: u32,
        /// `true` when this `Hello` re-establishes a connection the client
        /// already had (retry/backoff path); counted in daemon stats.
        #[serde(default)]
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
    /// Returns daemon statistics.
    Stats,
    /// Returns the daemon's latency histograms and counters (the
    /// observability plane; `Stats` keeps the flat counter set for older
    /// clients).
    GetMetrics,
    /// A no-op round trip, used to measure daemon latency (§5.1).
    Ping,
}

/// A response from the daemon.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Reply to `Hello`: where this machine's global puddle space lives,
    /// plus the granted connection parameters.
    Welcome {
        /// Base virtual address of the global puddle space.
        space_base: u64,
        /// Size of the global puddle space in bytes.
        space_size: u64,
        /// Granted per-connection in-flight window (the requested value
        /// clamped to the server's configured maximum). Defaulted (`0` = no
        /// grant information) so a `Welcome` from an older daemon still
        /// parses.
        #[serde(default)]
        max_in_flight: u32,
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
    /// Daemon statistics.
    Stats(DaemonStats),
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
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RequestEnvelope {
    /// Client-assigned request id, echoed in the response.
    pub req_id: u64,
    /// The wrapped request.
    pub req: Request,
}

/// A response frame: the echoed id plus the response.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
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
/// Decoding is structural — an object carrying a `req_id` key is an
/// envelope, anything else is a bare response — so no extra tag byte is
/// needed on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// An id-tagged response.
    Enveloped(ResponseEnvelope),
    /// A bare response (a pre-handshake rejection).
    Bare(Response),
}

impl Serialize for ServerFrame {
    fn serialize(&self) -> serde::Value {
        match self {
            ServerFrame::Enveloped(env) => env.serialize(),
            ServerFrame::Bare(resp) => resp.serialize(),
        }
    }
}

impl Deserialize for ServerFrame {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let is_envelope = v
            .as_map()
            .is_some_and(|m| m.iter().any(|(k, _)| k == "req_id"));
        if is_envelope {
            Ok(ServerFrame::Enveloped(ResponseEnvelope::deserialize(v)?))
        } else {
            Ok(ServerFrame::Bare(Response::deserialize(v)?))
        }
    }
}

impl Request {
    /// A `Hello` with default connection parameters (server picks the
    /// window) on a fresh, first-time connection.
    pub fn hello(creds: Credentials) -> Request {
        Request::Hello {
            creds,
            max_in_flight: 0,
            reconnect: false,
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
/// Implemented by the in-process endpoint (`puddled::LocalEndpoint`) and by
/// the UNIX-domain-socket client (`puddles::transport::PipelinedEndpoint`).
pub trait Endpoint: Send + Sync {
    /// Sends one request and waits for its response.
    fn call(&self, req: &Request) -> std::io::Result<Response>;
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

    #[test]
    fn request_roundtrips_through_json() {
        let reqs = vec![
            Request::Hello {
                creds: Credentials {
                    uid: 1000,
                    gid: 100,
                },
                max_in_flight: 64,
                reconnect: true,
            },
            Request::hello(Credentials { uid: 1, gid: 2 }),
            Request::CreatePuddle {
                size: 2 << 20,
                pool: Some("p".into()),
                purpose: PuddlePurpose::Data,
                mode: 0o600,
            },
            Request::GetPuddle {
                id: PuddleId(0xdead_beef_dead_beef_dead_beef_dead_beefu128),
                writable: false,
            },
            Request::RegisterPtrMap {
                decl: PtrMapDecl {
                    type_id: 42,
                    type_name: "Node".into(),
                    size: 16,
                    fields: vec![PtrField {
                        offset: 8,
                        target_type: 42,
                    }],
                },
            },
            Request::Ping,
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(req, back);
        }
    }

    /// `Hello`/`Welcome` grew negotiation fields after the wire format
    /// shipped; frames from peers that predate them must still parse, with
    /// the absent fields falling back to "server default" semantics.
    #[test]
    fn hello_and_welcome_without_negotiation_fields_still_parse() {
        let old_hello = r#"{"Hello":{"creds":{"uid":1000,"gid":100}}}"#;
        let req: Request = serde_json::from_str(old_hello).unwrap();
        assert_eq!(
            req,
            Request::hello(Credentials {
                uid: 1000,
                gid: 100
            })
        );

        let old_welcome = r#"{"Welcome":{"space_base":4096,"space_size":8192}}"#;
        let resp: Response = serde_json::from_str(old_welcome).unwrap();
        assert_eq!(
            resp,
            Response::Welcome {
                space_base: 4096,
                space_size: 8192,
                max_in_flight: 0,
            }
        );
    }

    /// `GetMetrics` rides the envelope like every other request, and
    /// reports from peers that predate the trace-ring fields still parse.
    #[test]
    fn get_metrics_roundtrips_in_envelopes() {
        let env = RequestEnvelope {
            req_id: 9,
            req: Request::GetMetrics,
        };
        let json = serde_json::to_string(&env).unwrap();
        assert_eq!(serde_json::from_str::<RequestEnvelope>(&json).unwrap(), env);

        let report = MetricsReport {
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
                name: "client_reconnects".into(),
                value: 1,
            }],
            trace_buffered: 9,
            trace_dropped: 0,
        };
        let env = ResponseEnvelope {
            req_id: 42,
            resp: Response::Metrics(report),
        };
        let json = serde_json::to_string(&env).unwrap();
        let frame: ServerFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(frame, ServerFrame::Enveloped(env));
        // A report without the trace fields (older daemon) still parses.
        let old = r#"{"series":[],"counters":[]}"#;
        let report: MetricsReport = serde_json::from_str(old).unwrap();
        assert_eq!(report.trace_buffered, 0);
        assert_eq!(report.trace_dropped, 0);
    }

    /// `reactor_connections` shipped as a fixed `[u64; 4]` before it became
    /// a length-`reactors` `Vec`; frames in the old shape (and frames
    /// without the reactor fields at all) must still decode.
    #[test]
    fn stats_frames_with_fixed_reactor_array_still_parse() {
        let json = serde_json::to_string(&Response::Stats(DaemonStats::default())).unwrap();
        let old_fixed = json
            .replace(
                "\"reactor_connections\":[]",
                "\"reactor_connections\":[0,3,0,0]",
            )
            .replace("\"reactor_requests\":[],", "");
        let back: Response = serde_json::from_str(&old_fixed).unwrap();
        let Response::Stats(stats) = back else {
            panic!("expected Stats, got {back:?}");
        };
        assert_eq!(stats.reactor_connections, vec![0, 3, 0, 0]);
        assert!(stats.reactor_requests.is_empty(), "absent field defaults");
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

    #[test]
    fn server_frame_distinguishes_envelopes_from_bare_responses() {
        let env = ResponseEnvelope {
            req_id: 7,
            resp: Response::Welcome {
                space_base: 0x1000,
                space_size: 0x2000,
                max_in_flight: 64,
            },
        };
        let json = serde_json::to_string(&env).unwrap();
        let frame: ServerFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(frame, ServerFrame::Enveloped(env));

        let bare = Response::Error {
            code: ErrorCode::Busy,
            message: "connection limit reached".into(),
        };
        let json = serde_json::to_string(&bare).unwrap();
        let frame: ServerFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(frame, ServerFrame::Bare(bare));

        let unit = Response::Ok;
        let json = serde_json::to_string(&unit).unwrap();
        let frame: ServerFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(frame, ServerFrame::Bare(unit));
    }

    #[test]
    fn request_envelope_roundtrips_through_json() {
        let env = RequestEnvelope {
            req_id: u64::MAX,
            req: Request::OpenPool { name: "p".into() },
        };
        let json = serde_json::to_string(&env).unwrap();
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn puddle_id_json_is_stable_hex() {
        let id = PuddleId(0x0123_4567_89ab_cdef_0123_4567_89ab_cdefu128);
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, "\"0123456789abcdef0123456789abcdef\"");
        let back: PuddleId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, id);
    }
}
