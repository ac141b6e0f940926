//! A reference loopback relay: the hops of a threaded socket server,
//! with no lookup work between them.
//!
//! Each request crosses a socket into a reader thread, a channel into a
//! worker thread, a channel into a writer thread, and a socket back.
//! The lookup client alternates blocks of frames between the serving
//! stack and this relay, so both round trips are timed under the same
//! host conditions. On a shared virtual machine a cross-vCPU wake-up
//! costs whatever the host's scheduler makes it cost at the moment, and
//! that moves both round trips alike; their ratio stays with the stack.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, sync_channel, Sender, TryRecvError};
use std::thread::JoinHandle;

/// Bound of each channel between the relay's threads.
const QUEUE_DEPTH: usize = 64;

/// Reads one `u32`-length-prefixed frame into `buf`.
fn read_frame(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    buf.resize(u32::from_le_bytes(len) as usize, 0);
    stream.read_exact(buf)
}

/// Writes `payload` with its length prefix in one `write_all`.
fn write_frame(stream: &mut TcpStream, payload: &[u8], out: &mut Vec<u8>) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::other("relay frame over 4 GiB"))?;
    out.clear();
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    stream.write_all(out)
}

/// Serves one connection until the client closes it: reader (this
/// thread) → worker → writer.
fn serve(stream: TcpStream) -> std::io::Result<()> {
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let (job_tx, job_rx) = sync_channel::<Vec<u8>>(QUEUE_DEPTH);
    let (reply_tx, reply_rx) = sync_channel::<Vec<u8>>(QUEUE_DEPTH);
    let worker = std::thread::spawn(move || {
        for job in job_rx {
            if reply_tx.send(job).is_err() {
                break;
            }
        }
    });
    let write = std::thread::spawn(move || {
        let mut out = Vec::new();
        for reply in reply_rx {
            if write_frame(&mut writer, &reply, &mut out).is_err() {
                break;
            }
        }
    });
    loop {
        let mut buf = Vec::new();
        if read_frame(&mut reader, &mut buf).is_err() || job_tx.send(buf).is_err() {
            break;
        }
    }
    drop(job_tx);
    let _ = worker.join();
    let _ = write.join();
    Ok(())
}

/// A relay serving one connection at a time on a loopback port; dropping
/// it stops the relay and joins its threads.
pub struct Relay {
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    /// Dropped to tell the acceptor to stop.
    stop: Option<Sender<()>>,
}

impl Relay {
    /// Binds a loopback port and starts accepting.
    ///
    /// # Errors
    /// Bind or thread-spawn failure, as text.
    pub fn start() -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("relay bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("relay address: {e}"))?;
        let (stop, stopped) = channel::<()>();
        let acceptor = std::thread::Builder::new()
            .name("perfbench-relay".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stopped.try_recv() == Err(TryRecvError::Disconnected) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        let _ = serve(stream);
                    }
                }
            })
            .map_err(|e| format!("relay thread: {e}"))?;
        Ok(Self {
            addr,
            acceptor: Some(acceptor),
            stop: Some(stop),
        })
    }

    /// Opens a client connection. The relay serves it once the previous
    /// connection has closed.
    ///
    /// # Errors
    /// Connect failure, as text.
    pub fn connect(&self) -> Result<RelayClient, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("relay connect: {e}"))?;
        Ok(RelayClient {
            stream,
            out: Vec::new(),
            back: Vec::new(),
        })
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        drop(self.stop.take());
        // Wakes the acceptor so it sees the dropped sender.
        drop(TcpStream::connect(self.addr));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// One blocking relay connection.
pub struct RelayClient {
    stream: TcpStream,
    out: Vec<u8>,
    back: Vec<u8>,
}

impl RelayClient {
    /// Sends `payload` and waits for it to come back.
    ///
    /// # Errors
    /// Transport failure, or a reply that differs from the request.
    pub fn round_trip(&mut self, payload: &[u8]) -> Result<(), String> {
        write_frame(&mut self.stream, payload, &mut self.out).map_err(|e| format!("relay: {e}"))?;
        read_frame(&mut self.stream, &mut self.back).map_err(|e| format!("relay: {e}"))?;
        if self.back == payload {
            Ok(())
        } else {
            Err("relay returned other bytes".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_echoes_on_successive_connections_and_stops_on_drop() {
        let relay = Relay::start().expect("start relay");
        for round in 0..2u8 {
            let mut client = relay.connect().expect("connect");
            for len in [1usize, 16, 4096] {
                let payload: Vec<u8> = (0..len).map(|i| (i as u8) ^ round).collect();
                client.round_trip(&payload).expect("echo");
            }
        }
        // Joins the acceptor; a hang here would fail the test by timeout.
        drop(relay);
    }
}
