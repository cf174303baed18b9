//! Tests for the service wire protocol: every encodable message round-trips
//! bit-exactly, no malformed or truncated input can do anything except
//! return a typed [`ProtoError`], and the exact bytes of every message and
//! the exact error of every kind of malformed payload are pinned as hex.

use proptest::prelude::*;

use dr_service::protocol::{
    frame, FrameBuf, IssueOptions, ProtoError, Request, Response, WireDerivation, WireTuple,
    WireValue,
};
use dr_service::ErrorCode;

fn wire_value() -> impl Strategy<Value = WireValue> {
    (
        0u32..6,
        0u32..100_000,
        -1.0e6f64..1.0e6,
        "[a-zA-Z0-9_ ]{0,12}",
        collection::vec(0u32..512, 0..6),
    )
        .prop_map(|(tag, n, f, s, path)| match tag {
            0 => WireValue::Node(n),
            1 => WireValue::Cost(if n % 7 == 0 { f64::INFINITY } else { f }),
            2 => WireValue::Int(i64::from(n) - 50_000),
            3 => WireValue::Bool(n % 2 == 0),
            4 => WireValue::Str(s),
            _ => WireValue::Path(path),
        })
}

fn wire_tuple() -> impl Strategy<Value = WireTuple> {
    ("[a-z][a-zA-Z0-9]{0,10}", collection::vec(wire_value(), 0..5))
        .prop_map(|(relation, values)| WireTuple { relation, values })
}

fn issue_options() -> impl Strategy<Value = IssueOptions> {
    (
        "[a-z][a-z0-9-]{0,8}",
        0u32..64,
        collection::vec("[a-z][a-zA-Z]{0,8}", 0..3),
        0u32..4,
        "[a-z][a-zA-Z]{0,10}",
        collection::vec(wire_tuple(), 0..3),
    )
        .prop_map(|(name, issuer, replicated, flags, cache_relation, facts)| IssueOptions {
            name,
            issuer,
            replicated,
            aggregate_selections: flags & 1 != 0,
            share_results: flags & 2 != 0,
            cache_relation,
            facts,
            record_provenance: flags & 4 != 0,
        })
}

fn wire_derivation() -> impl Strategy<Value = WireDerivation> {
    // The codec round-trips any structure; validity (child indexes forming
    // a tree) is `tree_from_flat`'s concern, tested in the unit tests.
    (
        0u32..4,
        wire_tuple(),
        "[A-Z]{0,4}[0-9]{0,2}",
        0u32..64,
        0u32..1_000,
        collection::vec(0u32..32, 0..4),
    )
        .prop_map(|(kind, tuple, rule, node, prov_id, children)| WireDerivation {
            kind: kind as u8,
            tuple,
            rule,
            node,
            prov_id,
            children,
        })
}

fn request() -> impl Strategy<Value = Request> {
    (
        0u32..9,
        "[ -~]{0,40}",
        issue_options(),
        0u64..1_000,
        0u32..64,
        collection::vec(wire_tuple(), 0..4),
        wire_tuple(),
    )
        .prop_map(|(tag, text, options, qid, node, facts, tuple)| match tag {
            0 => Request::Connect { client: text },
            1 => Request::IssueQuery { program: text, options },
            2 => Request::TeardownQuery { qid },
            3 => Request::InjectFacts { qid, node, facts },
            4 => Request::Subscribe { qid },
            5 => Request::Stats,
            6 => Request::Advance { millis: qid },
            7 => Request::Shutdown,
            _ => Request::Explain { qid, tuple },
        })
}

fn response() -> impl Strategy<Value = Response> {
    (
        0u32..12,
        0u64..1_000,
        0u32..64,
        collection::vec(wire_tuple(), 0..4),
        collection::vec("[ -~]{0,30}", 0..4),
        "[ -~]{0,40}",
        collection::vec(wire_derivation(), 0..4),
    )
        .prop_map(|(tag, qid, n, tuples, lines, text, nodes)| match tag {
            0 => Response::Connected { session: qid, nodes: n, now_millis: qid * 3 },
            1 => Response::Issued { qid },
            2 => Response::TornDown { qid },
            3 => Response::Injected { qid, count: n },
            4 => Response::Subscribed { qid },
            5 => {
                Response::Delta { qid, now_millis: qid * 7, added: tuples.clone(), removed: tuples }
            }
            6 => Response::Lagged { qid, missed: qid + 1 },
            7 => Response::Stats { lines },
            8 => Response::Advanced { now_millis: qid },
            9 => Response::Error {
                code: match n % 6 {
                    0 => ErrorCode::Parse,
                    1 => ErrorCode::QuotaExceeded,
                    2 => ErrorCode::UnknownQuery,
                    3 => ErrorCode::NotOwner,
                    4 => ErrorCode::BadRequest,
                    _ => ErrorCode::NotConnected,
                },
                message: text,
            },
            10 => Response::ShuttingDown,
            _ => Response::Explanation { qid, nodes },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_encode_decode_round_trips(req in request()) {
        let mut payload = Vec::new();
        req.encode(&mut payload);
        prop_assert_eq!(Request::decode(&payload), Ok(req));
    }

    #[test]
    fn response_encode_decode_round_trips(resp in response()) {
        let mut payload = Vec::new();
        resp.encode(&mut payload);
        prop_assert_eq!(Response::decode(&payload), Ok(resp));
    }

    #[test]
    fn truncated_request_is_a_typed_error_not_a_panic(req in request(), cut in 0usize..10_000) {
        let mut payload = Vec::new();
        req.encode(&mut payload);
        // Every strict prefix must fail cleanly. (Decoding never panics;
        // running this under the harness proves it.)
        let cut = cut % payload.len().max(1);
        if cut < payload.len() {
            prop_assert!(Request::decode(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(resp in response(), extra in 1usize..9) {
        let mut payload = Vec::new();
        resp.encode(&mut payload);
        payload.extend(std::iter::repeat_n(0xA5u8, extra));
        prop_assert_eq!(Response::decode(&payload), Err(ProtoError::TrailingBytes { extra }));
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(bytes in collection::vec(0u32..256, 0..64)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        // Either a valid message or a typed error — the point is that the
        // call always returns instead of panicking or allocating wildly.
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn frame_stream_reassembles_under_any_chunking(
        reqs in collection::vec(request(), 1..5),
        chunks in collection::vec(1usize..17, 1..64),
    ) {
        let mut stream = Vec::new();
        for req in &reqs {
            let mut payload = Vec::new();
            req.encode(&mut payload);
            stream.extend(frame(&payload));
        }
        let mut fb = FrameBuf::new();
        let mut decoded = Vec::new();
        let mut offset = 0;
        let mut chunk_idx = 0;
        while offset < stream.len() {
            let size = chunks[chunk_idx % chunks.len()].min(stream.len() - offset);
            chunk_idx += 1;
            fb.extend(&stream[offset..offset + size]);
            offset += size;
            while let Some(payload) = fb.next_frame().unwrap() {
                decoded.push(Request::decode(&payload).unwrap());
            }
        }
        prop_assert_eq!(decoded, reqs);
        prop_assert_eq!(fb.buffered(), 0);
    }
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocating() {
    let mut fb = FrameBuf::new();
    fb.extend(&u32::MAX.to_le_bytes());
    match fb.next_frame() {
        Err(ProtoError::FrameTooLarge { declared }) => {
            assert_eq!(declared, u32::MAX as usize);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Pinned bytes: the round-trip properties above cannot see an encoding that
// changed the same way on both sides, so the exact payload of one instance
// of every message, and the exact error of each kind of malformed payload,
// are written down here as hex.
// ---------------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn tuple(relation: &str, values: Vec<WireValue>) -> WireTuple {
    WireTuple { relation: relation.into(), values }
}

fn pinned_requests() -> Vec<(Request, &'static str)> {
    use WireValue::*;
    vec![
        (Request::Connect { client: "c".into() }, "010100000063"),
        (
            Request::IssueQuery {
                program: "p".into(),
                options: IssueOptions {
                    name: "q".into(),
                    issuer: 2,
                    replicated: vec!["m".into()],
                    aggregate_selections: true,
                    share_results: false,
                    cache_relation: "k".into(),
                    facts: vec![tuple("m", vec![Node(1)])],
                    record_provenance: true,
                },
            },
            "02010000007001000000710200000001000000010000006d0100010000006b01\
                000000010000006d01000000000100000001",
        ),
        (Request::TeardownQuery { qid: 3 }, "030300000000000000"),
        (
            Request::InjectFacts {
                qid: 4,
                node: 5,
                facts: vec![tuple("link", vec![Node(5), Node(6), Cost(1.5)])],
            },
            "0404000000000000000500000001000000040000006c696e6b03000000000500\
                0000000600000001000000000000f83f",
        ),
        (Request::Subscribe { qid: 6 }, "050600000000000000"),
        (Request::Stats, "06"),
        (Request::Advance { millis: 200 }, "07c800000000000000"),
        (Request::Shutdown, "08"),
        (
            Request::Explain {
                qid: 7,
                tuple: tuple("r", vec![Int(-2), Bool(true), Str("s".into()), Path(vec![0, 1])]),
            },
            "09070000000000000001000000720400000002feffffffffffffff0301040100\
                00007305020000000000000001000000",
        ),
    ]
}

fn pinned_responses() -> Vec<(Response, &'static str)> {
    use WireValue::*;
    vec![
        (
            Response::Connected { session: 1, nodes: 16, now_millis: 400 },
            "010100000000000000100000009001000000000000",
        ),
        (Response::Issued { qid: 2 }, "020200000000000000"),
        (Response::TornDown { qid: 3 }, "030300000000000000"),
        (Response::Injected { qid: 4, count: 1 }, "04040000000000000001000000"),
        (Response::Subscribed { qid: 5 }, "050500000000000000"),
        (
            Response::Delta {
                qid: 6,
                now_millis: 7,
                added: vec![tuple("b", vec![Cost(f64::INFINITY)])],
                removed: vec![],
            },
            "0606000000000000000700000000000000010000000100000062010000000100\
                0000000000f07f00000000",
        ),
        (Response::Lagged { qid: 8, missed: 9 }, "0708000000000000000900000000000000"),
        (Response::Stats { lines: vec!["{}".into()] }, "0801000000020000007b7d"),
        (Response::Advanced { now_millis: 10 }, "090a00000000000000"),
        (Response::Error { code: ErrorCode::NotOwner, message: "no".into() }, "0a03020000006e6f"),
        (Response::ShuttingDown, "0b"),
        (
            Response::Explanation {
                qid: 11,
                nodes: vec![WireDerivation {
                    kind: 1,
                    tuple: tuple("b", vec![]),
                    rule: "R".into(),
                    node: 2,
                    prov_id: 3,
                    children: vec![1],
                }],
            },
            "0c0b000000000000000100000001010000006200000000010000005202000000\
                030000000100000001000000",
        ),
    ]
}

#[test]
fn every_message_encodes_to_its_pinned_bytes() {
    let (requests, responses) = (pinned_requests(), pinned_responses());
    assert_eq!(requests.len() + responses.len(), 21, "one instance of every variant");
    let mut wrong = Vec::new();
    for (req, pinned) in requests {
        let mut payload = Vec::new();
        req.encode(&mut payload);
        if hex(&payload) != hex(&unhex(pinned)) {
            wrong.push(format!("{req:?}: {}", hex(&payload)));
        }
        assert_eq!(Request::decode(&payload), Ok(req));
    }
    for (resp, pinned) in responses {
        let mut payload = Vec::new();
        resp.encode(&mut payload);
        if hex(&payload) != hex(&unhex(pinned)) {
            wrong.push(format!("{resp:?}: {}", hex(&payload)));
        }
        assert_eq!(Response::decode(&payload), Ok(resp));
    }
    assert!(wrong.is_empty(), "encodings moved:\n{}", wrong.join("\n"));
}

#[test]
fn malformed_payloads_fail_with_their_pinned_errors() {
    use ProtoError::*;
    let bad_tag = |kind, tag| BadTag { kind, tag };
    let requests = [
        // Empty, and unknown tags (of the message and of a value in it).
        ("", Truncated),
        ("00", bad_tag("Request", 0x00)),
        ("ee", bad_tag("Request", 0xee)),
        ("09 0700000000000000 00000000 01000000 06", bad_tag("Value", 6)),
        // Element counts larger than the bytes left: a tuple counts at
        // least 5 bytes, a value 1, a path node or a string 4.
        ("04 0100000000000000 00000000 ffffffff", Truncated),
        ("04 0100000000000000 00000000 02000000 01000000c0 00000000", Truncated),
        ("04 0100000000000000 00000000 01000000 01000000c0", BadUtf8),
        ("09 0700000000000000 00000000 02000000 06", Truncated),
        ("09 0700000000000000 00000000 01000000 05 02000000 00000000 010000", Truncated),
        ("02 01000000 70 01000000 71 02000000 02000000 01000000 c0 0000", Truncated),
        ("02 01000000 70 01000000 71 02000000 01000000 01000000 c0", BadUtf8),
        // Truncated fields.
        ("07 c8000000000000", Truncated),
        ("01 02000000 63", Truncated),
        ("01 02000000 c080", BadUtf8),
        // A trailing byte.
        ("08 00", TrailingBytes { extra: 1 }),
        ("07 c800000000000000 ff", TrailingBytes { extra: 1 }),
    ];
    for (bytes, err) in requests {
        assert_eq!(Request::decode(&unhex(bytes)), Err(err), "request {bytes}");
    }
    let responses = [
        ("", Truncated),
        ("00", bad_tag("Response", 0x00)),
        ("0d", bad_tag("Response", 0x0d)),
        ("0a 09 00000000", bad_tag("ErrorCode", 9)),
        // A derivation counts at least 21 bytes, a child index 4.
        ("0c 0b00000000000000 01000000 00 01000000 c0 0000000000000000000000000000", Truncated),
        ("0c 0b00000000000000 01000000 00 01000000 c0 000000000000000000000000000000", BadUtf8),
        (
            "0c 0b00000000000000 01000000 01 00000000 00000000 00000000 00000000 00000000 \
             02000000 00000000 010000",
            Truncated,
        ),
        ("08 02000000 01000000 c0 0000", Truncated),
        ("08 01000000 01000000 c0", BadUtf8),
        ("06 0600000000000000 0700000000000000 02000000 01000000 c0 000000", Truncated),
        ("01 0100000000000000 1000", Truncated),
        ("0b 00", TrailingBytes { extra: 1 }),
        ("02 0200000000000000 ff", TrailingBytes { extra: 1 }),
    ];
    for (bytes, err) in responses {
        assert_eq!(Response::decode(&unhex(bytes)), Err(err), "response {bytes}");
    }
}
