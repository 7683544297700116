//! The `ce-serve` child process and a minimal HTTP/1.1 client for it.

use ce_serve::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The only flag the benchmark passes: a free loopback port instead of
/// the fixed default. Every other setting is the binary's default.
pub const SERVER_FLAGS: [&str; 2] = ["--addr", "127.0.0.1:0"];

/// A running `ce-serve` binary. Dropping it kills the process and waits
/// for it to exit.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the binary and waits for its "listening" line.
    pub fn spawn(bin: &Path) -> io::Result<Server> {
        let child = Command::new(bin)
            .args(SERVER_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let stdout = server
            .child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("ce-serve stdout not captured"))?;
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        server.addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unexpected ce-serve banner: {line:?}")))?;
        Ok(server)
    }

    /// User plus system CPU time of the server process, in clock ticks
    /// (from `/proc/<pid>/stat`).
    pub fn cpu_ticks(&self) -> Option<u64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
        let utime: u64 = fields.get(11)?.parse().ok()?;
        let stime: u64 = fields.get(12)?.parse().ok()?;
        Some(utime + stime)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
pub const TICKS_PER_SEC: f64 = 100.0;

pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n\r\n").into_bytes()
}

/// The head of a received response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head {
    pub status: u16,
    /// The `x-ce-cache` disposition: `Some(true)` for `hit`, `Some(false)`
    /// for `miss` or `coalesced`, `None` when absent (GET endpoints).
    pub cache_hit: Option<bool>,
    /// `x-ce-cache: coalesced`.
    pub coalesced: bool,
    pub chunked: bool,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// A keep-alive client connection with an input buffer.
pub struct Conn {
    pub stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    scratch: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(256 * 1024),
            pos: 0,
            scratch: vec![0; 64 * 1024],
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads once from the socket, blocking until bytes arrive; an error
    /// when the server closed or reset the connection.
    pub fn fill(&mut self) -> io::Result<()> {
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos > 1 << 20) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        match self.stream.read(&mut self.scratch) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&self.scratch[..n]);
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Takes one complete response off the input buffer, writing its body
    /// (chunks concatenated) into `body`. `Ok(None)` when the buffer does
    /// not yet hold a whole response; an error on malformed framing.
    pub fn try_parse(&mut self, body: &mut Vec<u8>) -> io::Result<Option<Head>> {
        let data = &self.buf[self.pos..];
        let Some(head_end) = find(data, b"\r\n\r\n").map(|p| p + 4) else {
            return Ok(None);
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head_text =
            std::str::from_utf8(&data[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head_text.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1.1 "))
            .and_then(|l| l.get(..3))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut head = Head {
            status,
            cache_hit: None,
            coalesced: false,
            chunked: false,
        };
        let mut content_length = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| bad("bad content-length"))?,
                    );
                }
                "transfer-encoding" => head.chunked = value.eq_ignore_ascii_case("chunked"),
                "x-ce-cache" => {
                    head.cache_hit = Some(value == "hit");
                    head.coalesced = value == "coalesced";
                }
                _ => {}
            }
        }
        body.clear();
        if head.chunked {
            let mut at = head_end;
            loop {
                let Some(line_end) = find(&data[at..], b"\r\n") else {
                    return Ok(None);
                };
                let size_text = std::str::from_utf8(&data[at..at + line_end])
                    .map_err(|_| bad("bad chunk size"))?;
                let size = usize::from_str_radix(size_text.trim(), 16)
                    .map_err(|_| bad("bad chunk size"))?;
                let start = at + line_end + 2;
                if data.len() < start + size + 2 {
                    return Ok(None);
                }
                if &data[start + size..start + size + 2] != b"\r\n" {
                    return Err(bad("chunk not CRLF-terminated"));
                }
                body.extend_from_slice(&data[start..start + size]);
                at = start + size + 2;
                if size == 0 {
                    self.pos += at;
                    return Ok(Some(head));
                }
            }
        }
        let length = content_length.ok_or_else(|| bad("response without framing"))?;
        if data.len() < head_end + length {
            return Ok(None);
        }
        body.extend_from_slice(&data[head_end..head_end + length]);
        self.pos += head_end + length;
        Ok(Some(head))
    }

    /// Blocks until one whole response has arrived.
    pub fn recv(&mut self, body: &mut Vec<u8>) -> io::Result<Head> {
        loop {
            if let Some(head) = self.try_parse(body)? {
                return Ok(head);
            }
            self.fill()?;
        }
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<Head> {
        self.send(request)?;
        self.recv(body)
    }

    /// `GET /stats`, parsed.
    pub fn stats(&mut self) -> io::Result<Json> {
        let mut body = Vec::new();
        let head = self.call(&get("/stats"), &mut body)?;
        if head.status != 200 {
            return Err(io::Error::other(format!("/stats answered {}", head.status)));
        }
        let text = String::from_utf8(body).map_err(|_| io::Error::other("non-UTF-8 /stats"))?;
        let stats = Json::parse(&text).map_err(|e| io::Error::other(format!("/stats: {e}")))?;
        if stats.get("shards").is_none() {
            return Err(io::Error::other("/stats answer has no shards array"));
        }
        Ok(stats)
    }
}

/// Per-shard open-connection gauges from a `/stats` body.
pub fn shard_connections(stats: &Json) -> Vec<u64> {
    stats
        .get("shards")
        .and_then(Json::as_array)
        .map(|shards| {
            shards
                .iter()
                .map(|s| s.get("connections").and_then(Json::as_f64).unwrap_or(0.0) as u64)
                .collect()
        })
        .unwrap_or_default()
}

/// Counters summed over a `/stats` body: compute endpoints' request
/// outcomes and every shard's event-loop counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub requests: f64,
    pub errors: f64,
    pub shed: f64,
    pub coalesced: f64,
    pub computed: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub polls: f64,
    pub wakeups: f64,
    pub short_writes: f64,
    pub partial_reads: f64,
    pub streamed: f64,
}

impl Counters {
    pub fn from_stats(stats: &Json) -> Counters {
        let mut c = Counters::default();
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        if let Some(endpoints) = stats.get("endpoints") {
            for name in ["evaluate", "explore", "optimal", "manifest"] {
                if let Some(e) = endpoints.get(name) {
                    c.requests += num(e, "requests");
                    c.errors += num(e, "errors");
                    c.shed += num(e, "shed");
                    c.coalesced += num(e, "coalesced");
                    c.computed += num(e, "computed");
                }
            }
        }
        for shard in stats.get("shards").and_then(Json::as_array).unwrap_or(&[]) {
            c.cache_hits += num(shard, "cache_hits");
            c.cache_misses += num(shard, "cache_misses");
            c.polls += num(shard, "polls");
            c.wakeups += num(shard, "wakeups");
            c.short_writes += num(shard, "short_writes");
            c.partial_reads += num(shard, "partial_reads");
            c.streamed += num(shard, "streamed");
        }
        c
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            requests: self.requests - earlier.requests,
            errors: self.errors - earlier.errors,
            shed: self.shed - earlier.shed,
            coalesced: self.coalesced - earlier.coalesced,
            computed: self.computed - earlier.computed,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            polls: self.polls - earlier.polls,
            wakeups: self.wakeups - earlier.wakeups,
            short_writes: self.short_writes - earlier.short_writes,
            partial_reads: self.partial_reads - earlier.partial_reads,
            streamed: self.streamed - earlier.streamed,
        }
    }
}

/// Spawns the server and waits until `/healthz` answers OK and every
/// `warm` request (one per context) has been answered with 200. Returns
/// the server, the connection used, and the time this took.
pub fn start_ready(bin: &Path, warm: &[Vec<u8>]) -> io::Result<(Server, Conn, f64)> {
    let t = Instant::now();
    let server = Server::spawn(bin)?;
    let mut conn = Conn::connect(server.addr)?;
    let mut body = Vec::new();
    let mut healthy = false;
    for _ in 0..1000 {
        if conn.call(&get("/healthz"), &mut body)?.status == 200 {
            healthy = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    if !healthy {
        return Err(io::Error::other("/healthz never answered OK"));
    }
    for request in warm {
        let head = conn.call(request, &mut body)?;
        if head.status != 200 {
            return Err(io::Error::other(format!(
                "context warm-up answered {}",
                head.status
            )));
        }
    }
    Ok((server, conn, t.elapsed().as_secs_f64()))
}

/// Opens two connections owned by different event-loop shards, or by the
/// same one when `same_shard` (the acceptor hands each connection to
/// whichever shard wins the race, so the second is retried until it
/// lands where wanted; with one shard, any pair is returned). `probe` is
/// an already-open connection that is closed first.
pub fn placed_pair(addr: SocketAddr, probe: Conn, same_shard: bool) -> io::Result<(Conn, Conn)> {
    drop(probe);
    let mut first = Conn::connect(addr)?;
    let alone = |conn: &mut Conn| -> io::Result<Vec<u64>> {
        for _ in 0..2000 {
            let per_shard = shard_connections(&conn.stats()?);
            if per_shard.iter().sum::<u64>() == 1 {
                return Ok(per_shard);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err(io::Error::other("stale connections never closed"))
    };
    let first_counts = alone(&mut first)?;
    let first_shard = first_counts.iter().position(|&n| n == 1).unwrap_or(0);
    for _ in 0..64 {
        let mut second = Conn::connect(addr)?;
        let counts = shard_connections(&second.stats()?);
        let together = counts.get(first_shard).copied().unwrap_or(0) >= 2;
        if counts.len() < 2 || together == same_shard {
            return Ok((first, second));
        }
        drop(second);
        alone(&mut first)?;
    }
    Err(io::Error::other("could not place the two connections"))
}
