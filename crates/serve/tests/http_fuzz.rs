//! Property tests for `wrm_serve::http::read_request`, the first code
//! every connection runs: arbitrary bytes, requests cut at every offset,
//! pipelined requests and heads over the size cap.

use proptest::prelude::*;
use std::io::BufReader;
use wrm_serve::http::{read_request, ReadError, Request};

/// The parser's cap on the request line plus headers.
const HEADER_CAP: usize = 64 * 1024;

/// A well-formed request: its wire bytes and what they must parse to.
#[derive(Debug)]
struct Wire {
    bytes: Vec<u8>,
    want: Request,
}

/// `Request` has no `PartialEq`; its `Debug` form shows every field.
fn same(got: &Request, want: &Request) -> bool {
    format!("{got:?}") == format!("{want:?}")
}

prop_compose! {
    fn wire()(
        method in prop_oneof![Just("GET"), Just("POST"), Just("PUT"), Just("DELETE")],
        path in "/[a-z0-9_./]{0,24}",
        minor in prop_oneof![Just("0"), Just("1")],
        crlf in any::<bool>(),
        raw_headers in prop::collection::vec(("[A-Za-z][A-Za-z0-9_]{0,12}", "[ -~]{0,24}"), 0..6),
        body in prop_oneof![Just(Vec::new()), prop::collection::vec(any::<u8>(), 1..48)],
        always_length in any::<bool>(),
    ) -> Wire {
        let eol = if crlf { "\r\n" } else { "\n" };
        let mut head = format!("{method} {path} HTTP/1.{minor}{eol}");
        let mut headers = Vec::new();
        for (name, value) in raw_headers {
            head.push_str(&format!("{name}: {value}{eol}"));
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
        if !body.is_empty() || always_length {
            head.push_str(&format!("Content-Length: {}{eol}", body.len()));
            headers.push(("content-length".to_owned(), body.len().to_string()));
        }
        head.push_str(eol);
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&body);
        let want = Request { method: method.to_owned(), path, headers, body };
        Wire { bytes, want }
    }
}

/// Byte strings biased towards HTTP syntax so the fuzz reaches the
/// header and body paths, not only the request-line check.
fn noise() -> impl Strategy<Value = Vec<u8>> {
    let fragment = prop_oneof![
        prop::collection::vec(any::<u8>(), 0..12),
        Just(b"GET / HTTP/1.1".to_vec()),
        Just(b"POST /v1/sweep HTTP/1.0".to_vec()),
        Just(b"\r\n".to_vec()),
        Just(b"\n".to_vec()),
        Just(b": ".to_vec()),
        Just(b"Content-Length: ".to_vec()),
        "[0-9]{1,3}".prop_map(String::into_bytes),
        Just(vec![0xff, 0xfe]),
    ];
    prop::collection::vec(fragment, 0..24).prop_map(|parts| parts.concat())
}

/// Bytes of `input` the parser has taken out of `reader` so far.
fn consumed(reader: &BufReader<&[u8]>, input: &[u8]) -> usize {
    input.len() - reader.get_ref().len() - reader.buffer().len()
}

proptest! {
    #[test]
    fn random_bytes_never_panic_and_always_progress(
        input in noise(),
        capacity in 1..64usize,
    ) {
        // A caller that keeps reading after every result, errors
        // included, must reach a clean end: each call either consumes
        // input or reports `Ok(None)` at the end of it.
        let mut reader = BufReader::with_capacity(capacity, &input[..]);
        loop {
            let before = consumed(&reader, &input);
            match read_request(&mut reader) {
                Ok(None) => {
                    prop_assert_eq!(consumed(&reader, &input), input.len());
                    break;
                }
                Ok(Some(_)) | Err(ReadError::Bad(_)) => {
                    prop_assert!(consumed(&reader, &input) > before, "no progress at {}", before);
                }
                Err(ReadError::TimedOut) => prop_assert!(false, "a byte slice cannot time out"),
            }
        }
    }

    #[test]
    fn a_request_cut_anywhere_is_none_bad_or_whole(
        w in wire(),
        capacity in 1..64usize,
    ) {
        for cut in 0..=w.bytes.len() {
            let mut reader = BufReader::with_capacity(capacity, &w.bytes[..cut]);
            match read_request(&mut reader) {
                Ok(None) => prop_assert_eq!(cut, 0),
                Ok(Some(req)) => {
                    prop_assert!(cut == w.bytes.len(), "accepted a cut at {}: {:?}", cut, w);
                    prop_assert!(same(&req, &w.want), "{:?} parsed as {:?}", w, req);
                }
                Err(ReadError::Bad(_)) => {
                    prop_assert!(cut > 0 && cut < w.bytes.len(), "rejected cut {}: {:?}", cut, w);
                }
                Err(ReadError::TimedOut) => prop_assert!(false, "a byte slice cannot time out"),
            }
        }
    }

    #[test]
    fn pipelined_requests_come_back_in_order(
        wires in prop::collection::vec(wire(), 1..6),
        capacity in 1..64usize,
    ) {
        let input: Vec<u8> = wires.iter().flat_map(|w| w.bytes.iter().copied()).collect();
        let mut reader = BufReader::with_capacity(capacity, &input[..]);
        for (i, w) in wires.iter().enumerate() {
            match read_request(&mut reader) {
                Ok(Some(req)) => {
                    prop_assert!(same(&req, &w.want), "request {}: {:?} parsed as {:?}", i, w, req);
                }
                other => prop_assert!(false, "request {}: {:?}", i, other),
            }
        }
        prop_assert!(matches!(read_request(&mut reader), Ok(None)));
    }

    #[test]
    fn heads_over_the_cap_are_rejected_with_bounded_reads(
        line_len in 1..4096usize,
        over in 1..4096usize,
        terminated in any::<bool>(),
        capacity in 1..8192usize,
    ) {
        // Either many terminated header lines or one endless line; in
        // both the head is longer than the cap.
        let mut input = b"GET / HTTP/1.1\r\n".to_vec();
        if terminated {
            while input.len() <= HEADER_CAP + over {
                input.extend_from_slice(b"X-Pad: ");
                input.resize(input.len() + line_len, b'a');
                input.extend_from_slice(b"\r\n");
            }
            input.extend_from_slice(b"\r\n");
        } else {
            input.extend_from_slice(b"X-Pad: ");
            input.resize(HEADER_CAP + over, b'a');
        }
        let mut reader = BufReader::with_capacity(capacity, &input[..]);
        let result = read_request(&mut reader);
        prop_assert!(
            matches!(&result, Err(ReadError::Bad(m)) if m.contains("too large")),
            "{:?}",
            result
        );
        // What left the input, buffered or parsed, is at most the cap
        // plus one buffer fill.
        let taken = input.len() - reader.get_ref().len();
        prop_assert!(taken <= HEADER_CAP + capacity, "took {} bytes", taken);
    }
}
