//! The handler pool grows with the load, not with a race.
//!
//! A handler counts its connection out before it closes the socket, so a
//! closed-loop client — one that reconnects the moment it reads EOF —
//! never finds the handler that just served it still counted busy. Two
//! such clients therefore get exactly two handlers, however long they
//! run; counted out after the close, the same traffic grew the pool to
//! three or four threads, a different number from run to run.
//!
//! A test binary of its own: it counts this process's threads by name,
//! which other tests' servers would add to.

#![cfg(all(target_os = "linux", not(loom)))]
#![allow(clippy::unwrap_used)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use sms_serve::{serve, ModelRegistry, ServerConfig};

const CLIENTS: usize = 2;
const REQUESTS_PER_CLIENT: usize = 3_000;

fn healthz(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: pool\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
}

/// Threads of this process named like a connection handler (the kernel
/// keeps the first 15 bytes of `sms-serve-conn-<i>`).
fn handler_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("sms-serve-conn"))
        .count()
}

#[test]
fn closed_loop_clients_get_one_handler_each() {
    let handle = serve(
        ModelRegistry::in_memory(),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(move || {
                for _ in 0..REQUESTS_PER_CLIENT {
                    healthz(addr);
                }
            });
        }
    });

    let handlers = handler_threads();
    assert!(
        (1..=CLIENTS).contains(&handlers),
        "{CLIENTS} closed-loop clients grew the pool to {handlers} handlers"
    );
    let metrics = handle.metrics().snapshot(0);
    assert_eq!(metrics.inflight_connections, 0);
    assert_eq!(metrics.shed_total, 0);
    handle.shutdown_and_join();
}
