//! A loopback TCP relay that counts the bytes crossing it.
//!
//! Party clients connect to the relay instead of the coordinator; each
//! accepted connection is paired with a fresh connection to the target
//! and pumped both ways. The counts are the socket payload bytes a real
//! deployment would put on the network (frame headers and handshakes
//! included), which the process I/O counters do not report for loopback
//! sockets.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Bytes relayed in each direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayCounts {
    /// Client → target (party → coordinator).
    pub up: u64,
    /// Target → client (coordinator → party).
    pub down: u64,
}

impl RelayCounts {
    /// Both directions.
    pub fn total(&self) -> u64 {
        self.up + self.down
    }
}

/// A running relay. [`Relay::finish`] stops it and joins every thread.
pub struct Relay {
    addr: SocketAddr,
    up: Arc<AtomicU64>,
    down: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<Vec<JoinHandle<()>>>,
}

impl Relay {
    /// Listen on an ephemeral loopback port and forward to `target`.
    pub fn start(target: SocketAddr) -> std::io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let up = Arc::new(AtomicU64::new(0));
        let down = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (up2, down2, stop2) = (Arc::clone(&up), Arc::clone(&down), Arc::clone(&stop));
        let acceptor = std::thread::spawn(move || {
            let mut pumps = Vec::new();
            while !stop2.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((client, _)) => {
                        let Ok(server) = TcpStream::connect(target) else {
                            continue;
                        };
                        let _ = client.set_nonblocking(false);
                        for (from, to, counter) in [
                            (client.try_clone(), server.try_clone(), Arc::clone(&up2)),
                            (server.try_clone(), client.try_clone(), Arc::clone(&down2)),
                        ] {
                            if let (Ok(from), Ok(to)) = (from, to) {
                                pumps.push(std::thread::spawn(move || pump(from, to, &counter)));
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            pumps
        });
        Ok(Relay {
            addr,
            up,
            down,
            stop,
            acceptor,
        })
    }

    /// Where clients should connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wait for every relayed connection to close, and
    /// return the byte counts. Call after both ends have hung up.
    pub fn finish(self) -> RelayCounts {
        self.stop.store(true, Ordering::SeqCst);
        let pumps = self.acceptor.join().expect("relay acceptor panicked");
        for p in pumps {
            p.join().expect("relay pump panicked");
        }
        RelayCounts {
            up: self.up.load(Ordering::SeqCst),
            down: self.down.load(Ordering::SeqCst),
        }
    }
}

/// Copy `from` → `to` until EOF or error, counting bytes; then pass the
/// hang-up on so the other side sees EOF too.
fn pump(mut from: TcpStream, mut to: TcpStream, counter: &AtomicU64) {
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                counter.fetch_add(n as u64, Ordering::SeqCst);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let _ = to.shutdown(Shutdown::Write);
    let _ = from.shutdown(Shutdown::Read);
}

#[cfg(test)]
mod tests {
    use super::*;
    use niid_bench_rs::fl::net::{read_frame, write_frame, MsgKind, FRAME_HEADER_LEN};

    #[test]
    fn counts_every_frame_byte_in_each_direction() {
        let server = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = server.local_addr().unwrap();
        let relay = Relay::start(target).unwrap();
        let ups: [usize; 3] = [0, 17, 4096];
        let downs: [usize; 2] = [5, 70_000];
        let echo = std::thread::spawn(move || {
            let (mut s, _) = server.accept().unwrap();
            let mut got = Vec::new();
            for _ in 0..ups.len() {
                got.push(read_frame(&mut s, 1 << 20).unwrap().payload.len());
            }
            for n in downs {
                write_frame(&mut s, MsgKind::Broadcast, &vec![7u8; n]).unwrap();
            }
            got
        });
        let mut c = TcpStream::connect(relay.addr()).unwrap();
        for n in ups {
            write_frame(&mut c, MsgKind::Update, &vec![1u8; n]).unwrap();
        }
        for n in downs {
            assert_eq!(read_frame(&mut c, 1 << 20).unwrap().payload.len(), n);
        }
        drop(c);
        assert_eq!(echo.join().unwrap(), ups.to_vec());
        let counts = relay.finish();
        let framed = |xs: &[usize]| xs.iter().map(|n| (n + FRAME_HEADER_LEN) as u64).sum();
        assert_eq!(counts.up, framed(&ups));
        assert_eq!(counts.down, framed(&downs));
        assert_eq!(counts.total(), counts.up + counts.down);
    }
}
