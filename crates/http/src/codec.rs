//! HTTP/1.1 request/response types and wire codec (GET-only subset).

/// A parsed GET request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request path (starts with `/`).
    pub path: String,
    /// `Host` header value (virtual-host key).
    pub host: String,
    /// `User-Agent` header value.
    pub user_agent: String,
}

impl Request {
    /// Builds a GET request for `host` + `path` with `user_agent`.
    pub fn get(host: &str, path: &str, user_agent: &str) -> Self {
        Request {
            path: if path.starts_with('/') {
                path.to_string()
            } else {
                format!("/{path}")
            },
            host: host.to_string(),
            user_agent: user_agent.to_string(),
        }
    }

    /// Encodes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(b"GET ");
        buf.extend_from_slice(self.path.as_bytes());
        buf.extend_from_slice(b" HTTP/1.1\r\nHost: ");
        buf.extend_from_slice(self.host.as_bytes());
        buf.extend_from_slice(b"\r\nUser-Agent: ");
        buf.extend_from_slice(self.user_agent.as_bytes());
        buf.extend_from_slice(b"\r\nAccept: text/html\r\nConnection: close\r\n\r\n");
        buf
    }

    /// Parses a request head (everything up to the blank line).
    pub fn parse(head: &str) -> Option<Request> {
        let mut lines = head.split("\r\n");
        let request_line = lines.next()?;
        let mut parts = request_line.split_whitespace();
        let method = parts.next()?;
        if !method.eq_ignore_ascii_case("GET") {
            return None;
        }
        let path = parts.next()?.to_string();
        let mut host = String::new();
        let mut user_agent = String::new();
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("host") {
                    // Strip a :port suffix.
                    host = value.split(':').next().unwrap_or(value).to_string();
                } else if name.eq_ignore_ascii_case("user-agent") {
                    user_agent = value.to_string();
                }
            }
        }
        Some(Request {
            path,
            host,
            user_agent,
        })
    }
}

/// Response status subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200.
    Ok,
    /// 302.
    Found,
    /// 404.
    NotFound,
    /// 400.
    BadRequest,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Found => 302,
            Status::NotFound => 404,
            Status::BadRequest => 400,
        }
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Found => "Found",
            Status::NotFound => "Not Found",
            Status::BadRequest => "Bad Request",
        }
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status.
    pub status: Status,
    /// `Location` header (for redirects).
    pub location: Option<String>,
    /// Body bytes (HTML).
    pub body: String,
}

impl Response {
    /// 200 with an HTML body.
    pub fn ok(body: String) -> Self {
        Response {
            status: Status::Ok,
            location: None,
            body,
        }
    }

    /// 302 to `location`.
    pub fn redirect(location: String) -> Self {
        Response {
            status: Status::Found,
            location: Some(location),
            body: String::new(),
        }
    }

    /// 404.
    pub fn not_found() -> Self {
        Response {
            status: Status::NotFound,
            location: None,
            body: String::new(),
        }
    }

    /// Encodes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.body.len() + 128);
        buf.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\n",
                self.status.code(),
                self.status.reason()
            )
            .as_bytes(),
        );
        if let Some(loc) = &self.location {
            buf.extend_from_slice(format!("Location: {loc}\r\n").as_bytes());
        }
        buf.extend_from_slice(b"Content-Type: text/html; charset=utf-8\r\n");
        buf.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        buf.extend_from_slice(b"Connection: close\r\n\r\n");
        buf.extend_from_slice(self.body.as_bytes());
        buf
    }

    /// Parses a full response (head + body). `None` on malformed input.
    pub fn parse(raw: &[u8]) -> Option<Response> {
        let head_end = find_head_end(raw)?;
        let head = std::str::from_utf8(&raw[..head_end]).ok()?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next()?;
        let code: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
        let status = match code {
            200 => Status::Ok,
            302 | 301 | 303 | 307 | 308 => Status::Found,
            404 => Status::NotFound,
            _ => Status::BadRequest,
        };
        let mut location = None;
        let mut content_length = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("location") {
                    location = Some(value.to_string());
                } else if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse::<usize>().ok();
                }
            }
        }
        let body_start = head_end + 4;
        let body_bytes = raw.get(body_start..)?;
        let body = match content_length {
            Some(n) => String::from_utf8_lossy(body_bytes.get(..n)?).into_owned(),
            None => String::from_utf8_lossy(body_bytes).into_owned(),
        };
        Some(Response {
            status,
            location,
            body,
        })
    }
}

/// Offset of the `\r\n\r\n` separator, if present.
pub fn find_head_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = Request::get("faceb00k.pw", "/", crate::ua::WEB);
        let wire = req.encode();
        let head_end = find_head_end(&wire).unwrap();
        let parsed = Request::parse(std::str::from_utf8(&wire[..head_end]).unwrap()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn request_host_port_stripped() {
        let head = "GET / HTTP/1.1\r\nHost: example.com:8080\r\nUser-Agent: x";
        let req = Request::parse(head).unwrap();
        assert_eq!(req.host, "example.com");
    }

    #[test]
    fn non_get_rejected() {
        assert!(Request::parse("POST / HTTP/1.1\r\nHost: x").is_none());
    }

    #[test]
    fn response_round_trips() {
        let r = Response::ok("<html>hi</html>".into());
        let parsed = Response::parse(&r.encode()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn redirect_round_trips() {
        let r = Response::redirect("https://paypal.com/".into());
        let parsed = Response::parse(&r.encode()).unwrap();
        assert_eq!(parsed.status, Status::Found);
        assert_eq!(parsed.location.as_deref(), Some("https://paypal.com/"));
    }

    #[test]
    fn not_found_round_trips() {
        let parsed = Response::parse(&Response::not_found().encode()).unwrap();
        assert_eq!(parsed.status, Status::NotFound);
        assert!(parsed.body.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Response::parse(b"not http at all").is_none());
        assert!(Response::parse(b"").is_none());
        assert!(Request::parse("GARBAGE").is_none());
    }

    #[test]
    fn body_respects_content_length() {
        let mut wire = Response::ok("abcdef".into()).encode();
        wire.extend_from_slice(b"trailing junk");
        let parsed = Response::parse(&wire).unwrap();
        assert_eq!(parsed.body, "abcdef");
    }
}
