//! The incremental experiment service: line-delimited JSON requests
//! (`evaluate` / `search` / `lint` / `fetch` / `metrics`) over stdin or a
//! TCP socket, backed by the parallel evaluator and an optional
//! persistent evaluation store. See [`edc_explore::serve`] for the
//! protocol.
//!
//! - Stdin mode (default): requests on stdin, one response per line on
//!   stdout. Consecutive `evaluate` lines batch until a blank line or a
//!   different op; end-of-input flushes the last batch and
//!   deterministically compacts the store, so two servers fed the same
//!   script leave byte-identical store files.
//! - TCP mode (`--listen ADDR`): connections are accepted and served one
//!   at a time over the same session, so every client shares the session
//!   memo and store. A connection's end flushes its pending batch; so does
//!   [`IDLE_TIMEOUT`] without a byte from the client, which closes the
//!   connection, so one idle client cannot hold up the others. The store
//!   is compacted when the listener terminates (never, under normal
//!   operation — the store stays durable via its append-only log).
//!
//! Lines are read as raw bytes, at most [`MAX_LINE_BYTES`] of them: a
//! longer line, or one that is not UTF-8, is skipped and answered with
//! one `"ok":false` error (after the pending batch), and serving goes on.
//!
//! Run: `cargo run --release -p edc-explore --bin edc_serve -- \
//!       [--store DIR] [--listen ADDR] [--threads N] [--objectives a,b]`

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use edc_explore::serve::ServeSession;
use edc_explore::{objective_by_name, Objective, Store};

/// Longest request line served, in bytes (the newline excluded). A longer
/// line is discarded as it is read, never buffered whole.
const MAX_LINE_BYTES: usize = 1 << 20;

/// How long a TCP connection may stay silent before it is closed.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

fn usage() -> ! {
    eprintln!(
        "usage: edc_serve [--store DIR] [--listen ADDR] [--threads N] [--objectives NAME,NAME]\n\
         \n\
         Speaks line-delimited JSON on stdin (default) or ADDR. Objective\n\
         names: completion_s, brownouts, p99_outage_s, energy_per_task_j\n\
         (default: completion_s,energy_per_task_j)."
    );
    std::process::exit(2);
}

fn main() {
    let mut store_dir: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut objective_names: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--store" => store_dir = Some(value()),
            "--listen" => listen = Some(value()),
            "--threads" => match value().parse() {
                Ok(n) => threads = Some(n),
                Err(_) => usage(),
            },
            "--objectives" => objective_names = Some(value()),
            _ => usage(),
        }
    }

    let mut session = ServeSession::new().metrics(edc_metrics::global());
    if let Some(n) = threads {
        session = session.threads(n);
    }
    if let Some(names) = objective_names {
        let mut objectives: Vec<Box<dyn Objective>> = Vec::new();
        for name in names.split(',').filter(|n| !n.is_empty()) {
            match objective_by_name(name) {
                Some(o) => objectives.push(o),
                None => {
                    eprintln!("unknown objective: {name}");
                    std::process::exit(2);
                }
            }
        }
        if objectives.is_empty() {
            usage();
        }
        session = session.objectives(objectives);
    }
    if let Some(dir) = store_dir {
        match Store::open(&dir) {
            Ok(store) => session = session.store(store.into_handle()),
            Err(e) => {
                eprintln!("cannot open store at {dir}: {e}");
                std::process::exit(1);
            }
        }
    }

    match listen {
        None => serve_stdin(session),
        Some(addr) => serve_tcp(session, &addr),
    }
}

/// Stdin mode: one response line per request, batches flushed on blank
/// lines and at end-of-input (which also compacts the store).
fn serve_stdin(mut session: ServeSession) {
    let mut out = std::io::stdout().lock();
    if serve_lines(&mut session, std::io::stdin().lock(), &mut out).is_err() {
        std::process::exit(1);
    }
    let finished = session
        .finish()
        .iter()
        .try_for_each(|r| writeln!(out, "{r}"));
    if finished.and_then(|()| out.flush()).is_err() {
        std::process::exit(1);
    }
}

/// TCP mode: connections served one at a time over the shared session,
/// so every client warms the same memo and store.
fn serve_tcp(mut session: ServeSession, addr: &str) {
    let listener = TcpListener::bind(addr).unwrap_or_else(|e| {
        eprintln!("cannot listen on {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!("edc_serve listening on {addr}");
    serve_connections(&mut session, listener.incoming(), IDLE_TIMEOUT);
}

/// Serves accepted connections one at a time. A read that waits longer
/// than `idle` ends its connection like end of input does.
fn serve_connections(
    session: &mut ServeSession,
    connections: impl Iterator<Item = std::io::Result<TcpStream>>,
    idle: Duration,
) {
    for stream in connections {
        let Ok(stream) = stream else { continue };
        if stream.set_read_timeout(Some(idle)).is_err() {
            continue;
        }
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => continue,
        };
        // A write error means the client is gone; either way the
        // connection's end answers its still-pending batch, and responses
        // to a departed client are simply dropped.
        let _ = serve_lines(session, BufReader::new(stream), &mut writer);
        for response in session.flush() {
            let _ = writeln!(writer, "{response}");
        }
        let _ = writer.flush();
    }
}

/// Feeds each line of `input` to the session and writes its responses,
/// flushed per line, until end of input or a read error. Lines are read as
/// bytes, at most [`MAX_LINE_BYTES`] at a time; an over-long or non-UTF-8
/// line gets one error response. Fails only when writing fails.
fn serve_lines(
    session: &mut ServeSession,
    mut input: impl BufRead,
    out: &mut impl Write,
) -> std::io::Result<()> {
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        match input.by_ref().take(limit).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return Ok(()),
            Ok(_) => {}
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        // Only a line cut off at the limit is longer than it.
        let responses = if line.len() > MAX_LINE_BYTES {
            // Discard the rest of the line unbuffered; a read error here
            // recurs on the next read, which ends the input.
            let _ = input.skip_until(b'\n');
            session.reject_line(&format!("request line longer than {MAX_LINE_BYTES} bytes"))
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) => session.handle_line(text),
                Err(_) => session.reject_line("request line is not UTF-8"),
            }
        };
        for response in responses {
            writeln!(out, "{response}")?;
        }
        out.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_client_does_not_block_the_next() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
        let addr = listener.local_addr().expect("bound address");
        std::thread::scope(|s| {
            // Serves the two clients below, then returns.
            let server = s.spawn(|| {
                let mut session = ServeSession::new().threads(1);
                let two = listener.incoming().take(2);
                serve_connections(&mut session, two, Duration::from_millis(100));
            });
            // Accepted first, this client never sends a byte.
            let idle = TcpStream::connect(addr).expect("first client connects");
            let mut client = TcpStream::connect(addr).expect("second client connects");
            client
                .set_read_timeout(Some(Duration::from_secs(20)))
                .expect("client timeout");
            client
                .write_all(b"{\"id\":1,\"op\":\"metrics\"}\n")
                .expect("request sent");
            let mut reply = String::new();
            BufReader::new(&client)
                .read_line(&mut reply)
                .expect("a reply before the client gives up");
            assert!(reply.contains(r#""ok":true,"op":"metrics""#), "{reply}");
            drop((idle, client));
            server.join().expect("server thread");
        });
    }
}
