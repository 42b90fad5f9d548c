//! HTTP client with redirect following.

use crate::codec::{Request, Response, Status};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Client errors.
#[derive(Debug)]
pub enum FetchError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's bytes did not parse as HTTP.
    BadResponse,
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Io(e) => write!(f, "io error: {e}"),
            FetchError::BadResponse => write!(f, "malformed HTTP response"),
        }
    }
}

impl std::error::Error for FetchError {}

impl From<std::io::Error> for FetchError {
    fn from(e: std::io::Error) -> Self {
        FetchError::Io(e)
    }
}

/// Terminal outcome of a fetch (after following redirects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Landed on a page.
    Page {
        /// Final host after redirects.
        final_host: String,
        /// HTML body.
        body: String,
        /// Hosts visited via redirects (excluding the start host).
        redirects: Vec<String>,
    },
    /// 404 / dead.
    Unreachable,
    /// Redirect loop or budget exceeded.
    TooManyRedirects,
}

/// Fetches `http://host/` via the world server at `addr`, following up to
/// `max_redirects` redirects. Every redirect target is re-requested from
/// the same server (it hosts all domains, virtual-host style); targets
/// outside the world 404 and surface as `Unreachable`... unless a page was
/// already collected, which mirrors how the paper's crawler records the
/// destination URL of each redirect chain.
pub fn fetch(
    addr: SocketAddr,
    host: &str,
    user_agent: &str,
    max_redirects: usize,
) -> Result<FetchOutcome, FetchError> {
    let mut current = host.to_string();
    let mut redirects = Vec::new();
    for _ in 0..=max_redirects {
        let resp = fetch_once(addr, &current, user_agent)?;
        match resp.status {
            Status::Ok => {
                return Ok(FetchOutcome::Page {
                    final_host: current,
                    body: resp.body,
                    redirects,
                })
            }
            Status::Found => {
                let Some(loc) = resp.location else {
                    return Err(FetchError::BadResponse);
                };
                let next = host_of(&loc).unwrap_or(loc);
                redirects.push(next.clone());
                current = next;
            }
            Status::NotFound | Status::BadRequest => {
                // A redirect that led off-world still records the chain.
                if redirects.is_empty() {
                    return Ok(FetchOutcome::Unreachable);
                }
                return Ok(FetchOutcome::Page {
                    final_host: current,
                    body: String::new(),
                    redirects,
                });
            }
        }
    }
    Ok(FetchOutcome::TooManyRedirects)
}

fn fetch_once(addr: SocketAddr, host: &str, user_agent: &str) -> Result<Response, FetchError> {
    let mut stream = TcpStream::connect(addr)?;
    let req = Request::get(host, "/", user_agent);
    stream.write_all(&req.encode())?;
    let mut buf = Vec::with_capacity(4096);
    stream.read_to_end(&mut buf)?;
    Response::parse(&buf).ok_or(FetchError::BadResponse)
}

/// Extracts the host portion of an absolute URL (shared impl).
pub use squatphi_domain::url::host_of;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_of_parses_urls() {
        assert_eq!(host_of("https://paypal.com/"), Some("paypal.com".into()));
        assert_eq!(host_of("http://a.b.c/path?q=1"), Some("a.b.c".into()));
        assert_eq!(host_of("http://h:8080/x"), Some("h".into()));
        assert_eq!(host_of("ftp://nope"), None);
        assert_eq!(host_of("http://"), None);
    }
}
