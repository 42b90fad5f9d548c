//! Virtual-host HTTP server fronting a [`WebWorld`].

use crate::codec::{find_head_end, Request, Response};
use squatphi_web::{Device, ServeResult, WebWorld};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the server waits on a connected client's next bytes. One
/// thread serves every connection in turn, so a client that connects and
/// then says nothing must not hold the accept loop (or `shutdown`) forever.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// A running world server: one thread that accepts and answers
/// connections one at a time.
pub struct WorldServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl WorldServer {
    /// Spawns the server on an ephemeral localhost port. The server keys
    /// every request on its `Host` header and the user-agent's device
    /// profile; `snapshot` fixes the point in time being served.
    pub fn spawn(world: Arc<WebWorld>, snapshot: u8) -> std::io::Result<WorldServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let thread = std::thread::spawn(move || {
            for accepted in listener.incoming() {
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = accepted else { continue };
                let _ = handle_connection(stream, &world, snapshot);
            }
        });
        Ok(WorldServer { addr, stop, thread })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes the listener and joins the server thread.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // `accept` has no timeout: a throwaway connection wakes the loop
        // so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

fn handle_connection(mut stream: TcpStream, world: &WebWorld, snapshot: u8) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(());
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(e) = find_head_end(&buf) {
            break e;
        }
        if buf.len() > 16 * 1024 {
            return Ok(()); // header flood, drop
        }
    };
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return Ok(()),
    };
    let response = match Request::parse(head) {
        Some(req) => {
            let device = if req.user_agent.contains("iPhone") || req.user_agent.contains("Mobile") {
                Device::Mobile
            } else {
                Device::Web
            };
            match world.serve(&req.host, device, snapshot) {
                ServeResult::Page(html) => Response::ok(html),
                ServeResult::Redirect(url) => Response::redirect(url),
                ServeResult::Unreachable => Response::not_found(),
            }
        }
        None => Response {
            status: crate::codec::Status::BadRequest,
            location: None,
            body: String::new(),
        },
    };
    stream.write_all(&response.encode())?;
    stream.shutdown(Shutdown::Write).ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{fetch, FetchOutcome};
    use crate::ua;
    use squatphi_squat::{BrandRegistry, SquatType};
    use squatphi_web::WorldConfig;
    use std::net::Ipv4Addr;

    fn world() -> Arc<WebWorld> {
        let registry = BrandRegistry::with_size(10);
        let squats = vec![
            (
                "paypal-cash.com".to_string(),
                0,
                SquatType::Combo,
                Ipv4Addr::new(1, 1, 1, 1),
            ),
            (
                "faceb00k.pw".to_string(),
                1,
                SquatType::Homograph,
                Ipv4Addr::new(1, 1, 1, 2),
            ),
        ];
        let cfg = WorldConfig {
            phishing_domains: 2,
            seed: 3,
            ..WorldConfig::default()
        };
        Arc::new(WebWorld::build(&squats, &registry, &cfg))
    }

    #[test]
    fn serves_phishing_page_over_tcp() {
        let server = WorldServer::spawn(world(), 0).unwrap();
        let out = fetch(server.addr(), "paypal-cash.com", ua::WEB, 5).unwrap();
        match out {
            FetchOutcome::Page { body, .. } => assert!(body.contains("form")),
            other => panic!("expected page, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn unknown_host_404s() {
        let server = WorldServer::spawn(world(), 0).unwrap();
        let out = fetch(server.addr(), "nosuchhost.example", ua::WEB, 5).unwrap();
        assert!(matches!(out, FetchOutcome::Unreachable));
        server.shutdown();
    }

    #[test]
    fn brand_sites_served() {
        let server = WorldServer::spawn(world(), 0).unwrap();
        let out = fetch(server.addr(), "paypal.com", ua::MOBILE, 5).unwrap();
        match out {
            FetchOutcome::Page { body, .. } => assert!(body.contains("paypal")),
            other => panic!("expected page, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn parallel_requests_served() {
        let server = WorldServer::spawn(world(), 0).unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for i in 0..50 {
            let host = if i % 2 == 0 {
                "paypal-cash.com"
            } else {
                "faceb00k.pw"
            };
            handles.push(std::thread::spawn(move || fetch(addr, host, ua::WEB, 5)));
        }
        for h in handles {
            assert!(h.join().unwrap().is_ok());
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_and_closes_the_listener() {
        let server = WorldServer::spawn(world(), 0).unwrap();
        let addr = server.addr();
        assert!(fetch(addr, "paypal-cash.com", ua::WEB, 5).is_ok());
        // Returning at all proves the thread was joined; the listener went
        // with it, so the port now refuses connections.
        server.shutdown();
        let err = fetch(addr, "paypal-cash.com", ua::WEB, 5).unwrap_err();
        assert!(matches!(err, crate::FetchError::Io(_)), "{err}");
    }
}
