//! Property tests: the length-prefixed frame codec is total. Arbitrary
//! bytes never make `read_frame` panic; it returns `Ok(None)` only at a
//! frame boundary and fails only with `InvalidData` or `UnexpectedEof`.
//! Any sequence of payloads `write_frame` writes reads back byte for
//! byte, and the same stream cut anywhere yields the whole frames
//! before the cut, then `Ok(None)` at a boundary or `UnexpectedEof`
//! inside a frame.

use std::io::{self, ErrorKind};

use proptest::collection;
use proptest::prelude::*;

use sunmap::frame::{read_frame, write_frame};

/// Characters payloads are drawn from: ASCII, JSON punctuation, a NUL
/// and multi-byte UTF-8 of every width.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '{', '"', '\\', '\0', '\n', 'é', '€', '😀',
];

/// Reads frames from `bytes` until `read_frame` stops. Returns the
/// payloads read, the offset just past the last of them and how the
/// read stopped (`Ok` for `Ok(None)`).
fn read_all(bytes: &[u8]) -> (Vec<String>, usize, io::Result<()>) {
    let mut cursor = bytes;
    let mut frames = Vec::new();
    let mut boundary = 0;
    loop {
        match read_frame(&mut cursor) {
            Ok(Some(payload)) => {
                frames.push(payload);
                boundary = bytes.len() - cursor.len();
            }
            Ok(None) => return (frames, boundary, Ok(())),
            Err(e) => return (frames, boundary, Err(e)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_never_panic_and_stop_only_at_a_boundary(
        bytes in collection::vec(
            // Half the bytes are zero, so short length prefixes (and
            // with them whole frames) are common.
            (0u8..4, 0u8..=255).prop_map(|(pick, b)| if pick < 2 { 0 } else { b }),
            0..48,
        ),
    ) {
        let (frames, boundary, end) = read_all(&bytes);
        match end {
            Ok(()) => prop_assert_eq!(boundary, bytes.len()),
            Err(e) => prop_assert!(
                matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                "{bytes:?}: {e:?}"
            ),
        }
        // The frames read are exactly the bytes they came from.
        let mut again = Vec::new();
        for frame in &frames {
            write_frame(&mut again, frame).unwrap();
        }
        prop_assert_eq!(&again[..], &bytes[..boundary]);
    }

    #[test]
    fn written_frames_read_back_and_a_cut_stream_stops_at_the_cut(
        payloads in collection::vec(
            collection::vec(0..CHARS.len(), 0..12)
                .prop_map(|ix| ix.iter().map(|&i| CHARS[i]).collect::<String>()),
            0..6,
        ),
        cut in 0usize..1_000,
    ) {
        let mut buf = Vec::new();
        let mut ends = vec![0];
        for payload in &payloads {
            write_frame(&mut buf, payload).unwrap();
            ends.push(buf.len());
        }
        let (frames, boundary, end) = read_all(&buf);
        prop_assert!(end.is_ok(), "{end:?}");
        prop_assert_eq!(&frames, &payloads);
        prop_assert_eq!(boundary, buf.len());

        let cut = cut % (buf.len() + 1);
        let whole = ends.iter().filter(|&&e| e <= cut).count() - 1;
        let (frames, boundary, end) = read_all(&buf[..cut]);
        prop_assert_eq!(&frames[..], &payloads[..whole]);
        prop_assert_eq!(boundary, ends[whole]);
        match end {
            Ok(()) => prop_assert_eq!(cut, ends[whole]),
            Err(e) => {
                prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
                prop_assert!(cut > ends[whole], "cut {cut} is a boundary, yet {e:?}");
            }
        }
    }
}
