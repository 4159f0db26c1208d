//! Integration tests of connection handling: bit-identity under many
//! concurrent connections, slow-reader isolation (the dead connection
//! is severed, other clients unaffected), the per-connection in-flight
//! quota, oversize-line rejection, and graceful-shutdown frame
//! flushing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gals_common::fxmap::FxHashSet;
use gals_core::{MachineConfig, McdConfig, Simulator, SyncConfig};
use gals_explore::MeasureItem;
use gals_serve::protocol::MAX_LINE_LEN;
use gals_serve::{Client, Request, RequestKind, Response, ServeConfig, Server};
use gals_workloads::suite;

fn prog_request(id: &str, bench: &str, cfg: usize, window: u64) -> Request {
    Request::new(
        id,
        RequestKind::RunConfig {
            bench: bench.to_string(),
            mode: "prog".to_string(),
            cfg: Some(cfg),
            policy: None,
            window,
        },
    )
}

fn direct_prog(bench: &str, cfg: usize, window: u64) -> f64 {
    let mcd = McdConfig::enumerate()[cfg];
    Simulator::new(MachineConfig::program_adaptive(mcd))
        .run(&mut suite::by_name(bench).unwrap().stream(), window)
        .runtime_ns()
}

fn partial_runtime(responses: &[Response]) -> f64 {
    match &responses[0] {
        Response::Partial { runtime_ns, .. } => *runtime_ns,
        other => panic!("expected partial, got {other:?}"),
    }
}

/// 64 connections all in flight at once, every served result
/// bit-identical to the direct simulator run of the same
/// configuration.
#[test]
fn bit_identity_under_64_multiplexed_connections() {
    const CONNS: usize = 64;
    const CFGS: usize = 16;
    let window = 600;
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    // Precompute the direct runtimes once (the 64 connections reuse 16
    // configurations, which also exercises in-flight dedupe).
    let direct: Arc<Vec<f64>> = Arc::new(
        (0..CFGS)
            .map(|c| direct_prog("art", c * 13, window))
            .collect(),
    );
    let handles: Vec<_> = (0..CONNS)
        .map(|c| {
            let direct = direct.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for r in 0..2 {
                    let cfg = (c + r * 7) % CFGS;
                    let id = format!("c{c}-r{r}");
                    let responses = client
                        .request(&prog_request(&id, "art", cfg * 13, window))
                        .unwrap();
                    assert_eq!(responses.len(), 2, "one partial + done for {id}");
                    let served = partial_runtime(&responses);
                    assert_eq!(
                        served.to_bits(),
                        direct[cfg].to_bits(),
                        "{id}: served must be bit-identical to direct"
                    );
                    assert!(
                        matches!(
                            responses.last(),
                            Some(Response::Done {
                                results: 1,
                                expired: 0,
                                ..
                            })
                        ),
                        "{id}: clean done frame"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // 16 distinct configurations: dedupe + cache must hold the
    // simulation count at CFGS despite 128 requests.
    assert_eq!(server.simulated_count(), CFGS as u64);
    server.shutdown();
}

/// A reader that stops reading must be bounded and isolated: once a
/// frame write to it stalls past the write-stall limit, *that*
/// connection is severed (its queued jobs cancel) while a concurrent
/// well-behaved client keeps getting correct results.
#[test]
fn slow_reader_is_bounded_and_isolated() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // The abuser: floods sync sweeps (1,024 frames ≈ 90 KiB each) and
    // never reads a byte. The volume must exceed what the kernel can
    // silently absorb for an unread socket — tcp_wmem autotunes the
    // send buffer up to 4 MiB on Linux — or no write ever stalls.
    // Dedupe makes the repeats nearly free: only the first sweep
    // simulates; the rest resolve from cache/in-flight claims.
    let mut abuser = TcpStream::connect(addr).unwrap();
    for i in 0..100 {
        let req = Request::new(
            format!("flood{i}"),
            RequestKind::Sweep {
                bench: "em3d".to_string(),
                mode: "sync".to_string(),
                window: 200,
            },
        );
        abuser.write_all(req.to_line().as_bytes()).unwrap();
        abuser.write_all(b"\n").unwrap();
    }
    abuser.flush().unwrap();

    // Meanwhile a polite client gets correct service.
    let mut client = Client::connect(addr).unwrap();
    let responses = client.request(&prog_request("ok", "gzip", 5, 500)).unwrap();
    assert_eq!(
        partial_runtime(&responses).to_bits(),
        direct_prog("gzip", 5, 500).to_bits(),
        "victim of a noisy neighbor must still get exact results"
    );

    // The abuser stays unread until the server gives up on it (its
    // queued jobs start cancelling) or 30 s pass: reading earlier would
    // turn it into a reader that keeps up, which nothing should sever.
    let give_up = Instant::now();
    while server.cancelled_count() == 0 && give_up.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(50));
    }

    // The server must sever the abuser: once a write to it stalls out
    // the socket closes (reads see EOF/reset, not timeout).
    abuser
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let start = Instant::now();
    let mut sink = [0u8; 16 * 1024];
    let severed = loop {
        match abuser.read(&mut sink) {
            Ok(0) => break true,
            Ok(_) => {} // Draining what was flushed before the kill.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if start.elapsed() > Duration::from_secs(30) {
                    break false;
                }
            }
            Err(_) => break true, // Reset counts as severed.
        }
    };
    assert!(severed, "slow reader must be disconnected, not buffered");
    // Its undone work was cancelled, not simulated to completion for
    // nobody: the flood asked for ~102K jobs, the quota kept up to
    // 2,048 of them admitted, and the kill happened mid-stream with
    // most of those still queued.
    assert!(
        server.cancelled_count() > 0,
        "queued jobs of the dead connection must cancel"
    );
    server.shutdown();
}

/// The per-connection in-flight quota (2,048 jobs) trickles an
/// oversized pipeline through without deadlock or loss: three pipelined
/// 1,024-job sweeps exceed it, so the third waits for quota, and every
/// frame still arrives, in request order, bit-exact.
#[test]
fn fairness_quota_trickles_pipelined_requests() {
    const WINDOW: u64 = 60;
    let benches = ["adpcm_encode", "bisort", "gzip"];
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (r, bench) in benches.iter().enumerate() {
        let req = Request::new(
            format!("q{r}"),
            RequestKind::Sweep {
                bench: bench.to_string(),
                mode: "sync".to_string(),
                window: WINDOW,
            },
        );
        client.send(&req).unwrap();
    }
    // Direct runs while the server works.
    let direct: Vec<Vec<(String, u64)>> = benches
        .iter()
        .map(|bench| {
            let spec = suite::by_name(bench).unwrap();
            SyncConfig::enumerate()
                .into_iter()
                .map(|c| {
                    let item = MeasureItem::sync(spec.clone(), c);
                    let ns = Simulator::new(item.machine.clone())
                        .run(&mut item.spec.stream(), WINDOW)
                        .runtime_ns();
                    (item.config_key, ns.to_bits())
                })
                .collect()
        })
        .collect();
    let mut seen: Vec<FxHashSet<String>> = vec![FxHashSet::default(); benches.len()];
    let mut done = 0;
    while done < benches.len() {
        match client.read_response().unwrap() {
            Response::Partial {
                id,
                key,
                runtime_ns,
                ..
            } => {
                let r: usize = id[1..].parse().unwrap();
                assert!(r >= done, "{id}: partial after its request's done");
                let want = direct[r]
                    .iter()
                    .find(|(k, _)| *k == key)
                    .unwrap_or_else(|| panic!("{id}: unknown key {key}"))
                    .1;
                assert_eq!(runtime_ns.to_bits(), want, "{id}/{key} exact");
                assert!(seen[r].insert(key), "{id}: duplicate frame");
            }
            Response::Done {
                id,
                results,
                expired,
            } => {
                assert_eq!(id, format!("q{done}"), "done frames in request order");
                assert_eq!((results, expired), (direct[done].len() as u64, 0));
                assert_eq!(seen[done].len(), direct[done].len(), "{id}: every partial");
                done += 1;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    server.shutdown();
}

/// A request line over the protocol bound earns an error frame and is
/// discarded whole; the connection survives and serves the next
/// request.
#[test]
fn oversize_line_is_rejected_connection_survives() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let giant = "x".repeat(MAX_LINE_LEN + 100);
    client.send_raw(&giant).unwrap();
    match client.read_response().unwrap() {
        Response::Error { message, .. } => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("expected error frame, got {other:?}"),
    }
    let responses = client
        .request(&prog_request("after", "gzip", 2, 300))
        .unwrap();
    assert_eq!(
        partial_runtime(&responses).to_bits(),
        direct_prog("gzip", 2, 300).to_bits(),
        "connection must survive an oversize line"
    );
    server.shutdown();
}

/// Graceful shutdown at connection scale: 32 live connections with
/// admitted work; `shutdown()` must flush every owed frame — each
/// request's partial and done — before any socket closes.
#[test]
fn shutdown_flushes_owed_frames_on_live_connections() {
    const CONNS: usize = 32;
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|c| {
            let mut client = Client::connect(addr).unwrap();
            client
                .send(&prog_request(&format!("s{c}"), "health", c % 8, 700))
                .unwrap();
            client
        })
        .collect();
    // Give the readers a beat to admit, then shut down concurrently
    // while nobody has read a single frame yet.
    std::thread::sleep(Duration::from_millis(100));
    let shutdown = std::thread::spawn(move || server.shutdown());
    for (c, client) in clients.iter_mut().enumerate() {
        let got_done;
        let mut got_result = false;
        loop {
            match client.read_response() {
                Ok(Response::Partial { id, runtime_ns, .. }) => {
                    assert_eq!(id, format!("s{c}"));
                    assert_eq!(
                        runtime_ns.to_bits(),
                        direct_prog("health", c % 8, 700).to_bits()
                    );
                    got_result = true;
                }
                Ok(Response::Done { .. }) => {
                    got_done = true;
                    break;
                }
                Ok(other) => panic!("conn {c}: unexpected frame {other:?}"),
                Err(e) => panic!("conn {c}: owed frames lost: {e}"),
            }
        }
        assert!(got_done && got_result, "conn {c} owed partial + done");
    }
    shutdown.join().unwrap();
}
