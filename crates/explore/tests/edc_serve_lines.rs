//! `edc_serve` reads request lines as bounded raw bytes: a non-UTF-8 or
//! over-long line gets one `"ok":false` error (after the pending evaluate
//! batch) and the session keeps serving.

// Test-only crate: fixture helpers may panic on harness failures
// (allow-unwrap-in-tests only covers `#[test]` fns, not their helpers).
#![allow(clippy::expect_used)]

use std::io::Write;
use std::process::{Command, Stdio};

fn serve(input: &[u8]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_edc_serve"))
        .args(["--threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("edc_serve starts");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let input = input.to_vec();
    // Written from a second thread so a full stdout pipe cannot deadlock.
    let writer = std::thread::spawn(move || stdin.write_all(&input));
    let out = child.wait_with_output().expect("edc_serve exits");
    writer.join().expect("writer").expect("input written");
    assert!(out.status.success(), "edc_serve failed: {:?}", out.status);
    String::from_utf8(out.stdout)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn hostile_lines_get_one_error_each_and_serving_goes_on() {
    let evaluate = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/serve_requests.txt"
    ))
    .expect("golden request script");
    let evaluate = evaluate.lines().next().expect("an evaluate line");
    let mut input = Vec::new();
    input.extend_from_slice(evaluate.as_bytes());
    input.extend_from_slice(b"\n\xff\xfe not UTF-8\n{\"id\":11,\"op\":\"metrics\"}\n");
    input.extend(std::iter::repeat_n(b'x', (1 << 20) + 1));
    input.extend_from_slice(b"\n{\"id\":12,\"op\":\"metrics\"}\r\n");
    // A line of exactly the limit is read (and fails as JSON, not as size).
    input.extend(std::iter::repeat_n(b'y', 1 << 20));
    // The last line may end without a newline.
    input.extend_from_slice(b"\n{\"id\":13,\"op\":\"metrics\"}");

    let out = serve(&input);
    assert_eq!(out.len(), 7, "one response per request line: {out:?}");
    assert!(
        out[0].contains(r#""ok":true,"op":"evaluate""#),
        "{}",
        out[0]
    );
    assert_eq!(
        out[1],
        r#"{"ok":false,"error":"request line is not UTF-8"}"#
    );
    assert!(out[2].starts_with(r#"{"id":11,"ok":true,"op":"metrics""#));
    assert_eq!(
        out[3],
        r#"{"ok":false,"error":"request line longer than 1048576 bytes"}"#
    );
    assert!(out[4].starts_with(r#"{"id":12,"ok":true,"op":"metrics""#));
    assert!(out[5].starts_with(r#"{"ok":false,"error":"invalid JSON"#));
    assert!(out[6].starts_with(r#"{"id":13,"ok":true,"op":"metrics""#));
}
