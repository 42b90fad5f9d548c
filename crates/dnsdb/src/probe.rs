//! The active-probing path: how ActiveDNS-style records come to exist.
//!
//! An authoritative UDP server answers A queries out of the snapshot index,
//! and a concurrent prober re-validates candidate domains against it over
//! real sockets. The pipeline uses the offline [`mod@crate::scan`] for bulk
//! work; the prober exists because the paper's dataset is *produced* by
//! active probing, and re-validation of scan hits is part of a production
//! deployment (§7 "monitoring newly registered domain names").
//!
//! Everything here is blocking `std::net`: the server is one thread on a
//! `UdpSocket`, stopped by a flag plus a wake-up datagram and joined by
//! [`AuthServer::shutdown`]; the prober is a `par_map` over the domain
//! list, each probe on its own socket with a read timeout.

use squatphi_dnswire::{Message, RData, Rcode, RecordType, ResourceRecord};
use squatphi_telemetry::par_map;
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Handle to a running authoritative server.
pub struct AuthServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl AuthServer {
    /// Spawns an authoritative server on an ephemeral localhost port,
    /// serving A records from `zone`.
    pub fn spawn(zone: HashMap<String, Ipv4Addr>) -> std::io::Result<AuthServer> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        let addr = socket.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut buf = vec![0u8; 1500];
            loop {
                let received = socket.recv_from(&mut buf);
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                let Ok((n, peer)) = received else { continue };
                if let Some(reply) = answer(&zone, &buf[..n]) {
                    let _ = socket.send_to(&reply, peer);
                }
            }
        });
        Ok(AuthServer { addr, stop, thread })
    }

    /// The server's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server, closes its socket and joins its thread.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // `recv_from` has no timeout: an empty datagram wakes the loop so
        // it sees the flag.
        if let Ok(waker) = UdpSocket::bind(("127.0.0.1", 0)) {
            let _ = waker.send_to(&[], self.addr);
        }
        let _ = self.thread.join();
    }
}

/// Builds the wire reply for one query packet, or `None` for junk input
/// (an authoritative server stays silent rather than amplifying garbage).
fn answer(zone: &HashMap<String, Ipv4Addr>, packet: &[u8]) -> Option<Vec<u8>> {
    let query = Message::decode(packet).ok()?;
    let q = query.questions.first()?;
    let mut resp = match (q.rtype, zone.get(&q.name.to_ascii_lowercase())) {
        (RecordType::A, Some(&ip)) => {
            let mut m = Message::response_to(&query, Rcode::NoError);
            m.answers.push(ResourceRecord {
                name: q.name.clone(),
                ttl: 300,
                rdata: RData::A(ip),
            });
            m
        }
        _ => Message::response_to(&query, Rcode::NxDomain),
    };
    resp.header.flags.recursion_available = false;
    resp.encode().ok()
}

/// Result of probing one domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeResult {
    /// Resolved to an address.
    Resolved(Ipv4Addr),
    /// Authoritative NXDOMAIN.
    NxDomain,
    /// No reply within the per-query timeout (after retries).
    TimedOut,
}

/// Configuration for the prober.
#[derive(Debug, Clone)]
pub struct ProberConfig {
    /// Maximum in-flight queries.
    pub concurrency: usize,
    /// Per-attempt timeout.
    pub timeout: Duration,
    /// Attempts per domain (1 = no retry).
    pub attempts: usize,
}

impl Default for ProberConfig {
    fn default() -> Self {
        ProberConfig {
            concurrency: 64,
            timeout: Duration::from_millis(500),
            attempts: 2,
        }
    }
}

/// Probes `domains` against the authoritative server at `server`.
/// Returns one result per input domain, order-preserving. At most
/// `config.concurrency` queries are in flight: that many workers (fewer
/// when there are fewer domains) each probe one domain at a time. The
/// first domain (in input order) whose socket fails is the error; the
/// remaining domains are still probed before it is returned.
pub fn probe_all(
    server: SocketAddr,
    domains: &[String],
    config: &ProberConfig,
) -> std::io::Result<Vec<ProbeResult>> {
    // A probe is a UDP round trip the worker sleeps through (tens of µs
    // on loopback, milliseconds on a network), so one domain already
    // pays for the ~50 µs spawn that overlaps it with another.
    const PROBE_GRAIN: usize = 1;
    par_map(domains.len(), config.concurrency, PROBE_GRAIN, |i| {
        probe_one(server, &domains[i], i as u16, config)
    })
    .into_iter()
    .collect()
}

fn probe_one(
    server: SocketAddr,
    domain: &str,
    id: u16,
    config: &ProberConfig,
) -> std::io::Result<ProbeResult> {
    let socket = UdpSocket::bind(("127.0.0.1", 0))?;
    socket.connect(server)?;
    socket.set_read_timeout(Some(config.timeout))?;
    let query = Message::query(id, domain, RecordType::A)
        .encode()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let mut buf = vec![0u8; 1500];
    for _ in 0..config.attempts.max(1) {
        socket.send(&query)?;
        // A recv error is a failed attempt: the read timeout elapsing, or
        // an ICMP port-unreachable surfacing as ConnectionRefused on a
        // connected UDP socket.
        let Ok(n) = socket.recv(&mut buf) else {
            continue;
        };
        let Ok(msg) = Message::decode(&buf[..n]) else {
            continue;
        };
        if msg.header.id != id || !msg.header.flags.response {
            continue;
        }
        for rr in &msg.answers {
            if let RData::A(ip) = rr.rdata {
                return Ok(ProbeResult::Resolved(ip));
            }
        }
        return Ok(match msg.rcode() {
            Rcode::NxDomain => ProbeResult::NxDomain,
            _ => ProbeResult::TimedOut,
        });
    }
    Ok(ProbeResult::TimedOut)
}

/// Re-validates scan hits over the wire: serves the snapshot zone from an
/// authoritative server and probes every matched domain, returning
/// `(resolved, nxdomain, timed_out)` counts. A production deployment runs
/// this between the offline scan and the crawl so the crawler only visits
/// domains that still resolve.
pub fn validate_scan(
    store: &crate::store::RecordStore,
    matches: &[crate::scan::SquatRecord],
    config: &ProberConfig,
) -> std::io::Result<(usize, usize, usize)> {
    let server = AuthServer::spawn(store.index())?;
    let domains: Vec<String> = matches
        .iter()
        .map(|m| m.domain.as_str().to_string())
        .collect();
    let results = probe_all(server.addr(), &domains, config);
    server.shutdown();
    let mut counts = (0usize, 0usize, 0usize);
    for r in results? {
        match r {
            ProbeResult::Resolved(_) => counts.0 += 1,
            ProbeResult::NxDomain => counts.1 += 1,
            ProbeResult::TimedOut => counts.2 += 1,
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone() -> HashMap<String, Ipv4Addr> {
        let mut z = HashMap::new();
        z.insert("faceb00k.pw".to_string(), Ipv4Addr::new(203, 0, 113, 1));
        z.insert("goofle.com.ua".to_string(), Ipv4Addr::new(203, 0, 113, 2));
        z.insert("paypal-cash.com".to_string(), Ipv4Addr::new(203, 0, 113, 3));
        z
    }

    #[test]
    fn resolves_known_names() {
        let server = AuthServer::spawn(zone()).unwrap();
        let domains = vec!["faceb00k.pw".to_string(), "goofle.com.ua".to_string()];
        let res = probe_all(server.addr(), &domains, &ProberConfig::default()).unwrap();
        assert_eq!(res[0], ProbeResult::Resolved(Ipv4Addr::new(203, 0, 113, 1)));
        assert_eq!(res[1], ProbeResult::Resolved(Ipv4Addr::new(203, 0, 113, 2)));
        server.shutdown();
    }

    #[test]
    fn nxdomain_for_unknown_names() {
        let server = AuthServer::spawn(zone()).unwrap();
        let domains = vec!["not-in-zone.example".to_string()];
        let res = probe_all(server.addr(), &domains, &ProberConfig::default()).unwrap();
        assert_eq!(res[0], ProbeResult::NxDomain);
        server.shutdown();
    }

    #[test]
    fn bulk_probe_with_bounded_concurrency() {
        let server = AuthServer::spawn(zone()).unwrap();
        let mut domains: Vec<String> = Vec::new();
        for i in 0..200 {
            domains.push(if i % 3 == 0 {
                "paypal-cash.com".to_string()
            } else {
                format!("missing{i}.example")
            });
        }
        let cfg = ProberConfig {
            concurrency: 16,
            ..ProberConfig::default()
        };
        let res = probe_all(server.addr(), &domains, &cfg).unwrap();
        assert_eq!(res.len(), 200);
        for (i, r) in res.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(*r, ProbeResult::Resolved(Ipv4Addr::new(203, 0, 113, 3)));
            } else {
                assert_eq!(*r, ProbeResult::NxDomain);
            }
        }
        server.shutdown();
    }

    #[test]
    fn timeout_when_no_server() {
        // Bind a socket and drop it so nothing listens on the port.
        let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let dead = sock.local_addr().unwrap();
        drop(sock);
        let cfg = ProberConfig {
            concurrency: 1,
            timeout: Duration::from_millis(50),
            attempts: 1,
        };
        let res = probe_all(dead, &["x.com".to_string()], &cfg).unwrap();
        assert_eq!(res[0], ProbeResult::TimedOut);
    }

    #[test]
    fn shutdown_joins_and_closes_the_socket() {
        let server = AuthServer::spawn(zone()).unwrap();
        let addr = server.addr();
        let domains = ["faceb00k.pw".to_string()];
        let res = probe_all(addr, &domains, &ProberConfig::default()).unwrap();
        assert!(matches!(res[0], ProbeResult::Resolved(_)));
        // Returning at all proves the thread was joined; its socket went
        // with it, so nothing answers on the port any more.
        server.shutdown();
        let cfg = ProberConfig {
            concurrency: 1,
            timeout: Duration::from_millis(50),
            attempts: 1,
        };
        let res = probe_all(addr, &domains, &cfg).unwrap();
        assert_eq!(res[0], ProbeResult::TimedOut);
    }

    #[test]
    fn server_ignores_garbage_packets() {
        let server = AuthServer::spawn(zone()).unwrap();
        let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sock.connect(server.addr()).unwrap();
        sock.send(b"\x00\x01garbage").unwrap();
        // Then a real query still works.
        let res = probe_all(
            server.addr(),
            &["faceb00k.pw".to_string()],
            &ProberConfig::default(),
        )
        .unwrap();
        assert!(matches!(res[0], ProbeResult::Resolved(_)));
        server.shutdown();
    }

    #[test]
    fn validate_scan_round_trips_the_snapshot() {
        use crate::synth::{generate, SnapshotConfig};
        use squatphi_squat::{BrandRegistry, SquatDetector};
        let registry = BrandRegistry::with_size(15);
        let cfg = SnapshotConfig {
            benign_records: 300,
            squatting_records: 80,
            subdomain_fraction: 0.0,
            seed: 4,
        };
        let (store, _) = generate(&cfg, &registry);
        let detector = SquatDetector::new(&registry);
        let outcome = crate::scan(&store, &registry, &detector, 2);
        assert!(outcome.total_matches() > 0);
        let (resolved, nx, timeout) =
            validate_scan(&store, &outcome.matches, &ProberConfig::default()).expect("probe");
        // Every scan match came out of the snapshot, so everything must
        // re-resolve against the same zone.
        assert_eq!(
            resolved,
            outcome.total_matches(),
            "nx={nx} timeout={timeout}"
        );
    }

    #[test]
    fn case_insensitive_lookup() {
        let server = AuthServer::spawn(zone()).unwrap();
        let res = probe_all(
            server.addr(),
            &["FaCeB00k.PW".to_string()],
            &ProberConfig::default(),
        )
        .unwrap();
        assert!(matches!(res[0], ProbeResult::Resolved(_)));
        server.shutdown();
    }
}
