//! Length-prefixed JSON framing for the UNIX-domain-socket transport.

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::{self, Read, Write};

/// Maximum accepted frame size (16 MiB); guards against corrupt prefixes.
pub const MAX_FRAME: u32 = 16 << 20;

/// Connection preamble.
///
/// A client writes these 4 bytes once, immediately after connecting and
/// before its first frame; everything after them is `RequestEnvelope` /
/// `ResponseEnvelope` frames (see the crate docs). The bytes are chosen so
/// they can never be confused with a frame: interpreted as a little-endian
/// length prefix they decode to `0x3244_5550`, far above [`MAX_FRAME`], so
/// a peer that expects a frame rejects the stream instead of misparsing it
/// (and a frame, whose prefix is always ≤ [`MAX_FRAME`], can never equal
/// the magic). `preamble_cannot_be_a_length_prefix` pins this down.
pub const V2_MAGIC: [u8; 4] = *b"PUD2";

/// Appends one length-prefixed JSON frame (prefix included) to `out`. The
/// single place that knows the frame encoding; a server that batches
/// responses encodes each straight into its connection's output buffer.
/// On error `out` is left as it was.
pub fn encode_frame_into<T: Serialize>(out: &mut Vec<u8>, value: &T) -> io::Result<()> {
    let body = serde_json::to_vec(value).map_err(io::Error::other)?;
    let len = u32::try_from(body.len()).map_err(|_| io::Error::other("frame too large"))?;
    if len > MAX_FRAME {
        return Err(io::Error::other("frame too large"));
    }
    out.reserve(4 + body.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&body);
    Ok(())
}

/// Encodes one length-prefixed JSON frame into a byte buffer of its own;
/// writers that need custom I/O (e.g. interruptible writes) send these
/// bytes verbatim.
pub fn encode_frame<T: Serialize>(value: &T) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    encode_frame_into(&mut bytes, value)?;
    Ok(bytes)
}

/// Writes one length-prefixed JSON frame.
pub fn write_frame<W: Write, T: Serialize>(writer: &mut W, value: &T) -> io::Result<()> {
    writer.write_all(&encode_frame(value)?)?;
    writer.flush()
}

/// Decodes and bounds-checks a frame's length prefix. The single place that
/// knows the prefix encoding; every reader (blocking or interruptible) goes
/// through it.
pub fn frame_len(len_buf: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds limit",
        ));
    }
    Ok(len as usize)
}

/// Decodes a frame body into a message.
pub fn decode_frame<T: DeserializeOwned>(body: &[u8]) -> io::Result<T> {
    serde_json::from_slice(body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Incremental frame decoder for nonblocking transports.
///
/// A reactor-style server reads whatever bytes the socket has — which may
/// be half a length prefix, several frames back-to-back, or a frame split
/// at any byte boundary — and feeds them here; [`FrameDecoder::next_frame`]
/// yields each complete message exactly once. The decoder owns a single
/// contiguous buffer; consumed frames are drained from its front.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw bytes received from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Number of bytes buffered but not yet decoded (partial frame plus any
    /// frames not yet pulled with [`FrameDecoder::next_frame`]).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Returns the first `n` buffered bytes without consuming them, or
    /// `None` if fewer are buffered. Servers use this to check for the
    /// [`V2_MAGIC`] preamble before decoding the stream.
    pub fn peek(&self, n: usize) -> Option<&[u8]> {
        (self.buf.len() >= n).then(|| &self.buf[..n])
    }

    /// Discards the first `n` buffered bytes (the caller has interpreted
    /// them out of band, e.g. the [`V2_MAGIC`] preamble).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes are buffered.
    pub fn consume(&mut self, n: usize) {
        assert!(self.buf.len() >= n, "consume past the buffered bytes");
        self.buf.drain(..n);
    }

    /// Decodes the next complete frame, if the buffer holds one.
    ///
    /// Returns `Ok(None)` while the frame is still incomplete. A corrupt
    /// prefix (length beyond [`MAX_FRAME`]) or an undecodable body is an
    /// error; the connection should be dropped — after a framing error the
    /// stream position is unrecoverable.
    pub fn next_frame<T: DeserializeOwned>(&mut self) -> io::Result<Option<T>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = frame_len(self.buf[..4].try_into().expect("4 bytes checked"))?;
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let value = decode_frame(&self.buf[4..4 + len])?;
        self.buf.drain(..4 + len);
        Ok(Some(value))
    }
}

/// Reads one length-prefixed JSON frame.
pub fn read_frame<R: Read, T: DeserializeOwned>(reader: &mut R) -> io::Result<T> {
    let mut len_buf = [0u8; 4];
    reader.read_exact(&mut len_buf)?;
    let len = frame_len(len_buf)?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    decode_frame(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Request, Response};

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping).unwrap();
        write_frame(&mut buf, &Response::Ok).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let req: Request = read_frame(&mut cursor).unwrap();
        let resp: Response = read_frame(&mut cursor).unwrap();
        assert_eq!(req, Request::Ping);
        assert_eq!(resp, Response::Ok);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&[0; 16]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame::<_, Request>(&mut cursor).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame::<_, Request>(&mut cursor).is_err());
    }

    /// A stream of frames the decoder tests chop up.
    fn sample_stream() -> (Vec<Request>, Vec<u8>) {
        let reqs = vec![
            Request::Ping,
            Request::OpenPool {
                name: "pool-with-a-longer-name".into(),
            },
            Request::GetPtrMaps,
            Request::CreatePool {
                name: "p".into(),
                root_size: 1 << 20,
                mode: 0o640,
            },
            Request::Ping,
        ];
        let mut bytes = Vec::new();
        for req in &reqs {
            bytes.extend_from_slice(&encode_frame(req).unwrap());
        }
        (reqs, bytes)
    }

    #[test]
    fn decoder_yields_frames_fed_byte_by_byte() {
        let (reqs, bytes) = sample_stream();
        let mut dec = FrameDecoder::new();
        let mut out: Vec<Request> = Vec::new();
        for b in bytes {
            dec.feed(&[b]);
            while let Some(req) = dec.next_frame().unwrap() {
                out.push(req);
            }
        }
        assert_eq!(out, reqs);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_yields_frames_fed_all_at_once() {
        let (reqs, bytes) = sample_stream();
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let mut out: Vec<Request> = Vec::new();
        while let Some(req) = dec.next_frame().unwrap() {
            out.push(req);
        }
        assert_eq!(out, reqs);
    }

    #[test]
    fn decoder_rejects_oversized_length_prefix() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME + 1).to_le_bytes());
        assert!(dec.next_frame::<Request>().is_err());
    }

    #[test]
    fn preamble_cannot_be_a_length_prefix() {
        // As a length prefix the magic must be rejected outright, so a
        // preamble reaching a frame decoder fails instead of misparsing.
        assert!(u32::from_le_bytes(V2_MAGIC) > MAX_FRAME);
        assert!(frame_len(V2_MAGIC).is_err());
    }

    #[test]
    fn peek_and_consume_strip_a_preamble() {
        let mut dec = FrameDecoder::new();
        dec.feed(&V2_MAGIC[..2]);
        assert_eq!(dec.peek(4), None, "partial preamble is not peekable");
        dec.feed(&V2_MAGIC[2..]);
        dec.feed(&encode_frame(&Request::Ping).unwrap());
        assert_eq!(dec.peek(4), Some(&V2_MAGIC[..]));
        dec.consume(4);
        assert_eq!(dec.next_frame::<Request>().unwrap(), Some(Request::Ping));
        assert_eq!(dec.buffered(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Frames split across arbitrary read boundaries decode exactly as
        /// the unsplit stream: the reactor's invariant that socket read
        /// chunking can never change what the daemon sees.
        #[test]
        fn decoder_is_chunking_invariant(
            cuts in proptest::collection::vec(1usize..24, 0..40)
        ) {
            let (reqs, bytes) = sample_stream();
            let mut dec = FrameDecoder::new();
            let mut out: Vec<Request> = Vec::new();
            let mut pos = 0usize;
            // Interpret the sampled values as successive chunk lengths;
            // whatever remains after the last cut is fed in one piece.
            for cut in cuts {
                if pos >= bytes.len() {
                    break;
                }
                let end = (pos + cut).min(bytes.len());
                dec.feed(&bytes[pos..end]);
                pos = end;
                while let Some(req) = dec.next_frame().unwrap() {
                    out.push(req);
                }
            }
            dec.feed(&bytes[pos..]);
            while let Some(req) = dec.next_frame().unwrap() {
                out.push(req);
            }
            proptest::prop_assert_eq!(&out, &reqs);
            proptest::prop_assert_eq!(dec.buffered(), 0);
        }

        /// A connection's stream — magic preamble plus enveloped frames —
        /// fed at arbitrary split boundaries decodes exactly as the unsplit
        /// stream, with every request keeping its `req_id`. This is the
        /// daemon-side invariant behind pipelining: chunking can change
        /// neither the preamble check nor id→request pairing.
        #[test]
        fn v2_stream_is_chunking_invariant(
            cuts in proptest::collection::vec(1usize..24, 0..40)
        ) {
            let (reqs, _) = sample_stream();
            let envelopes: Vec<crate::RequestEnvelope> = reqs
                .into_iter()
                .enumerate()
                .map(|(i, req)| crate::RequestEnvelope {
                    req_id: 1000 + i as u64,
                    req,
                })
                .collect();
            let mut bytes = V2_MAGIC.to_vec();
            for env in &envelopes {
                bytes.extend_from_slice(&encode_frame(env).unwrap());
            }
            let mut dec = FrameDecoder::new();
            let mut negotiated = false;
            let mut out: Vec<crate::RequestEnvelope> = Vec::new();
            let drain = |dec: &mut FrameDecoder, negotiated: &mut bool,
                             out: &mut Vec<crate::RequestEnvelope>| {
                if !*negotiated {
                    match dec.peek(4) {
                        Some(head) if head == V2_MAGIC => {
                            dec.consume(4);
                            *negotiated = true;
                        }
                        Some(_) => panic!("preamble misread"),
                        None => return,
                    }
                }
                while let Some(env) = dec.next_frame().unwrap() {
                    out.push(env);
                }
            };
            let mut pos = 0usize;
            for cut in cuts {
                if pos >= bytes.len() {
                    break;
                }
                let end = (pos + cut).min(bytes.len());
                dec.feed(&bytes[pos..end]);
                pos = end;
                drain(&mut dec, &mut negotiated, &mut out);
            }
            dec.feed(&bytes[pos..]);
            drain(&mut dec, &mut negotiated, &mut out);
            proptest::prop_assert_eq!(&out, &envelopes);
            proptest::prop_assert_eq!(dec.buffered(), 0);
        }
    }
}
