//! A deterministic fault-injecting TCP proxy for torturing `sg-serve`,
//! shared by the serve crate's test binaries (`mod chaos;`).
//!
//! [`ChaosProxy::spawn`] sits between clients and a daemon and relays
//! NDJSON lines while injecting faults — dropped lines, delays, split
//! writes, read stalls, and mid-line truncation that tears the
//! connection down — from a **seeded schedule**: the fault applied to
//! line `k` of connection `i` in direction `d` is a pure function of
//! `(spec.seed, i, d, k)`, so a chaos run replays exactly (the
//! `AdversaryTrace` discipline, applied to the transport). No wall clock
//! is consulted anywhere.
//!
//! The proxy is deliberately line-oriented: faults land on frame
//! boundaries (drop/delay/split a whole frame) or deliberately break
//! them (truncate mid-frame), which is precisely the vocabulary the
//! wire-protocol robustness tests speak.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault mix and magnitudes, in per-mille so a schedule line rolls one
/// `0..1000` value against cumulative thresholds.
#[derive(Clone, Copy, Debug)]
pub struct ChaosSpec {
    /// Schedule seed; everything the proxy does derives from it.
    pub seed: u64,
    /// ‰ of lines silently dropped (the peer never sees the frame).
    pub drop_per_mille: u32,
    /// ‰ of lines delayed by [`ChaosSpec::delay_ms`] before relay.
    pub delay_per_mille: u32,
    /// ‰ of lines written half, then the rest after a pause — two
    /// flushes, exercising partial-frame reads.
    pub split_per_mille: u32,
    /// ‰ of lines where the proxy stalls [`ChaosSpec::stall_ms`]
    /// *before reading on*, backing the sender up (slow-loris).
    pub stall_per_mille: u32,
    /// ‰ of lines cut mid-bytes with the connection then torn down.
    pub truncate_per_mille: u32,
    /// Delay magnitude, milliseconds.
    pub delay_ms: u64,
    /// Stall magnitude, milliseconds.
    pub stall_ms: u64,
}

/// What the schedule decided for one relayed line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    Forward,
    Drop,
    Delay,
    Split,
    Stall,
    Truncate,
}

/// The per-direction deterministic fault stream.
pub struct Schedule {
    spec: ChaosSpec,
    rng: StdRng,
}

impl Schedule {
    /// The stream for direction `dir` (0 = client→server, 1 = reverse)
    /// of accepted connection `conn`.
    pub fn new(spec: ChaosSpec, conn: u64, dir: u64) -> Schedule {
        let seed = spec
            .seed
            .wrapping_add(conn.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(dir.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        Schedule {
            spec,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The fault for the stream's next line.
    pub fn next(&mut self) -> Fault {
        let roll = self.rng.gen_range(0u32..1000);
        let s = &self.spec;
        let mut edge = s.drop_per_mille;
        if roll < edge {
            return Fault::Drop;
        }
        edge += s.delay_per_mille;
        if roll < edge {
            return Fault::Delay;
        }
        edge += s.split_per_mille;
        if roll < edge {
            return Fault::Split;
        }
        edge += s.stall_per_mille;
        if roll < edge {
            return Fault::Stall;
        }
        edge += s.truncate_per_mille;
        if roll < edge {
            return Fault::Truncate;
        }
        Fault::Forward
    }
}

/// Kills one proxied connection pair outright (both directions of both
/// legs), whatever the other pump thread is doing.
fn kill_pair(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

/// Relays `src` → `dst` line by line, consulting `schedule` per line.
/// `src_raw` is a clone of the reader's stream, kept so faults can tear
/// the whole pair down.
fn pump(src: TcpStream, dst: TcpStream, mut schedule: Schedule) {
    let src_raw = match src.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut dst = dst;
    let mut reader = BufReader::new(src);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let bytes = line.as_bytes();
        match schedule.next() {
            Fault::Forward => {
                if dst.write_all(bytes).is_err() {
                    break;
                }
            }
            Fault::Drop => continue,
            Fault::Delay => {
                std::thread::sleep(Duration::from_millis(schedule.spec.delay_ms));
                if dst.write_all(bytes).is_err() {
                    break;
                }
            }
            Fault::Split => {
                let half = bytes.len() / 2;
                if dst.write_all(&bytes[..half]).is_err() || dst.flush().is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(schedule.spec.delay_ms));
                if dst.write_all(&bytes[half..]).is_err() {
                    break;
                }
            }
            Fault::Stall => {
                // Sleeping here stops our reads too, so the sender backs
                // up into its own send buffer — the slow-loris shape.
                std::thread::sleep(Duration::from_millis(schedule.spec.stall_ms));
                if dst.write_all(bytes).is_err() {
                    break;
                }
            }
            Fault::Truncate => {
                let half = (bytes.len() / 2).max(1);
                let _ = dst.write_all(&bytes[..half]);
                let _ = dst.flush();
                kill_pair(&src_raw, &dst);
                return;
            }
        }
    }
    // Propagate EOF downstream so the peer winds down instead of
    // waiting on a half-dead proxy.
    let _ = dst.shutdown(Shutdown::Write);
}

/// A running chaos proxy; dropping it stops the listener (established
/// relays die with their endpoints).
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Listens on an ephemeral localhost port and relays every accepted
    /// connection to `upstream` through `spec`'s fault schedule.
    ///
    /// # Errors
    ///
    /// Returns the bind error verbatim.
    pub fn spawn(upstream: SocketAddr, spec: ChaosSpec) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("sg-chaos-accept".to_string())
            .spawn(move || {
                let mut conn_index: u64 = 0;
                loop {
                    let Ok((client, _)) = listener.accept() else {
                        break;
                    };
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    client.set_nodelay(true).ok();
                    let index = conn_index;
                    conn_index += 1;
                    let Ok(server) = TcpStream::connect(upstream) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    server.set_nodelay(true).ok();
                    let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                        kill_pair(&client, &server);
                        continue;
                    };
                    let up = Schedule::new(spec, index, 0);
                    let down = Schedule::new(spec, index, 1);
                    let _ = std::thread::Builder::new()
                        .name("sg-chaos-up".to_string())
                        .spawn(move || pump(client, server, up));
                    let _ = std::thread::Builder::new()
                        .name("sg-chaos-down".to_string())
                        .spawn(move || pump(s2, c2, down));
                }
            })
            .expect("spawn chaos accept loop");
        Ok(ChaosProxy {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The proxy's listening address, for clients.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop the same way the daemon does: one
        // throwaway self-connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}
