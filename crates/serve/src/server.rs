//! The TCP diagnosis server: std-only, thread-per-connection behind a
//! bounded accept pool.
//!
//! Each accepted connection gets its own thread and a clone of the
//! [`ServiceHandle`]; the pool gate caps how many run at once — further
//! accepts *wait* (backpressure) rather than spawning unboundedly.
//! Shutdown is cooperative: [`DiagnosisServer::shutdown`] raises a flag,
//! unblocks the acceptor with a loopback connection, then joins the
//! acceptor and waits for in-flight connections to drain.  Dropping the
//! server does the same but for the wait: the port closes, and the
//! connections already accepted finish on their own threads.

use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::protocol::{read_frame, write_frame, ProtocolError, Request, Response};
use crate::service::ServiceHandle;

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; the acceptor blocks (TCP
    /// backlog holds the rest) once the pool is full.
    pub max_connections: usize,
    /// Per-frame payload cap for this server.
    pub max_frame_bytes: usize,
    /// Per-connection read timeout: an idle peer is disconnected rather
    /// than pinning a pool slot forever.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 8,
            max_frame_bytes: crate::protocol::MAX_FRAME_BYTES,
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// The bounded connection-pool gate: a counter under a mutex plus a
/// condvar to wait on.
#[derive(Debug, Default)]
struct Pool {
    active: Mutex<usize>,
    changed: Condvar,
}

impl Pool {
    fn acquire(&self, cap: usize) {
        let mut active = match self.active.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        while *active >= cap {
            active = match self.changed.wait(active) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        *active += 1;
    }

    fn release(&self) {
        let mut active = match self.active.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        *active = active.saturating_sub(1);
        self.changed.notify_all();
    }

    fn wait_idle(&self) {
        let mut active = match self.active.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        while *active > 0 {
            active = match self.changed.wait(active) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// A running diagnosis server.  Dropping it stops and joins the acceptor
/// thread, which closes the listening port; [`DiagnosisServer::shutdown`]
/// also waits for the in-flight connections to finish.
#[derive(Debug)]
pub struct DiagnosisServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    pool: Arc<Pool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl DiagnosisServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// accepting.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        handle: ServiceHandle,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(Pool::default());
        let acceptor = {
            let stop = Arc::clone(&stop);
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                accept_loop(listener, handle, config, stop, pool);
            })
        };
        Ok(Self {
            local_addr,
            stop,
            pool,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stops accepting, joins the acceptor thread, waits for in-flight
    /// connections to finish.
    pub fn shutdown(mut self) {
        self.stop_acceptor();
        self.pool.wait_idle();
    }

    /// Stops accepting and joins the acceptor thread, which drops the
    /// listener.  Idempotent.
    fn stop_acceptor(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway loopback connection; it
        // re-checks the flag per accept.
        let _ = TcpStream::connect(self.local_addr);
        let _ = acceptor.join();
    }
}

impl Drop for DiagnosisServer {
    fn drop(&mut self) {
        self.stop_acceptor();
    }
}

fn accept_loop(
    listener: TcpListener,
    handle: ServiceHandle,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    pool: Arc<Pool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        pool.acquire(config.max_connections);
        let handle = handle.clone();
        let pool_for_conn = Arc::clone(&pool);
        let config = config.clone();
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &handle, &config);
            pool_for_conn.release();
        });
    }
}

/// Serves one connection until EOF, a protocol violation or the read
/// timeout.  Schema-level violations get an error response before the
/// disconnect; transport errors just drop the connection.
fn serve_connection(
    stream: TcpStream,
    handle: &ServiceHandle,
    config: &ServerConfig,
) -> Result<(), ProtocolError> {
    stream.set_read_timeout(Some(config.read_timeout))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let value = match read_frame(&mut reader, config.max_frame_bytes) {
            Ok(Some(value)) => value,
            Ok(None) => return Ok(()),
            Err(ProtocolError::Malformed(message)) => {
                let _ = write_frame(&mut writer, &Response::Error(message.clone()).encode());
                let _ = reader.get_ref().shutdown(Shutdown::Both);
                return Err(ProtocolError::Malformed(message));
            }
            Err(error) => return Err(error),
        };
        let response = match Request::decode(&value) {
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Machines) => Response::Machines(handle.machines()),
            Ok(Request::Query(query)) => Response::Result(handle.query(&query)),
            Ok(Request::Batch(queries)) => Response::Batch(handle.query_batch(&queries)),
            Err(error) => Response::Error(error.to_string()),
        };
        write_frame(&mut writer, &response.encode())?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, DiagnosisClient, DiagnosisService};

    #[test]
    fn a_dropped_server_closes_its_port() {
        let service = DiagnosisService::new(Catalog::new());
        let server =
            DiagnosisServer::start("127.0.0.1:0", service.handle(), ServerConfig::default())
                .expect("server start");
        let addr = server.local_addr();
        let mut client = DiagnosisClient::connect(addr).expect("connect");
        client.ping().expect("ping");
        drop(server);
        // The connection accepted before the drop is still served ...
        client.ping().expect("in-flight connection");
        // ... but the port takes no new ones.
        let error = TcpStream::connect(addr).expect_err("port closed");
        assert_eq!(error.kind(), std::io::ErrorKind::ConnectionRefused);
    }
}
