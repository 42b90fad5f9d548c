//! Minimal HTTP/1.1 substrate over blocking `std::net` TCP.
//!
//! The paper's crawler drives headless Chrome over real HTTP; our
//! reproduction keeps a real-socket path (`tests/network.rs`, the
//! `active_probe` example) that exercises genuine networking (connection
//! handling, redirects, user agents) while the content comes from the
//! [`squatphi_web::WebWorld`]. One server process hosts *every* domain of
//! the world, virtual-host style, keyed by the `Host` header — exactly how
//! a test lab would stub the internet.
//!
//! Scope: request line + headers (no bodies on requests, fixed-length
//! bodies on responses), `GET` only, one request per connection
//! (`Connection: close`). The server is one thread answering connections
//! in turn; the client is a plain blocking function, and callers that
//! want parallel fetches run it on their own threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod server;

pub use client::{fetch, FetchError, FetchOutcome};
pub use codec::{Request, Response, Status};
pub use server::WorldServer;

/// The paper's two crawl user agents (§3.2).
pub mod ua {
    /// Desktop Chrome 65 (the "web" profile).
    pub const WEB: &str =
        "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/65.0.3325.181 Safari/537.36";
    /// iPhone 6 (the "mobile" profile).
    pub const MOBILE: &str =
        "Mozilla/5.0 (iPhone; CPU iPhone OS 11_0 like Mac OS X) AppleWebKit/604.1.38 (KHTML, like Gecko) Version/11.0 Mobile/15A372 Safari/604.1";
}
