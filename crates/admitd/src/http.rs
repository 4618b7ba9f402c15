//! Minimal HTTP/1.1 responder for the observability endpoints.
//!
//! Connections that do not open with the binary magic are parsed as one
//! HTTP request and answered with `Connection: close`:
//!
//! - `GET /metrics` — Prometheus text exposition of the merged server
//!   and world registries (always passes `telemetry::lint_prometheus`).
//! - `GET /state` — JSON per-cell occupancy snapshot.
//! - `GET /healthz` — liveness probe (`ok`).
//!
//! Anything else gets a 404; non-GET methods get a 405.

/// A rendered HTTP response, ready to write.
#[must_use]
pub fn render_response(status: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(body.as_bytes());
    out
}

/// The request target of an HTTP request head, if it is a well-formed
/// GET; `Err` carries the ready-to-write error response.
pub fn parse_get_target(head: &str) -> Result<String, Vec<u8>> {
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() {
        return Err(render_response(
            400,
            "Bad Request",
            "text/plain; charset=utf-8",
            "malformed request line\n",
        ));
    }
    if method != "GET" {
        return Err(render_response(
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        ));
    }
    Ok(target.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_get_targets() {
        assert_eq!(
            parse_get_target("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap(),
            "/metrics"
        );
        assert!(parse_get_target("POST /metrics HTTP/1.1\r\n\r\n").is_err());
        assert!(parse_get_target("\r\n\r\n").is_err());
    }

    #[test]
    fn renders_content_length() {
        let resp = render_response(200, "OK", "text/plain; charset=utf-8", "ok\n");
        let text = String::from_utf8(resp).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }
}
