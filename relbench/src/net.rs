//! The server under test, the bench-side transport wrapper that times it
//! from outside, and the line client the workloads drive it with.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dp_service::protocol::{parse_line, render_line, Request};
use dp_service::transport::TcpConnection;
use dp_service::{
    Connection, ConnectionWriter, DpService, Server, ServiceError, TcpTransport, Transport,
};

use crate::trace;

/// The op of a request line, as the span names spell it.
pub fn op_of(line: &str) -> &'static str {
    if line.contains("\"op\":\"release_current\"") {
        "release_current"
    } else if line.contains("\"op\":\"release\"") {
        "release"
    } else if line.contains("\"op\":\"ingest\"") {
        "ingest"
    } else {
        "other"
    }
}

/// The `request_id` of a request or keyed response line, if any.
pub fn request_id_of(line: &str) -> Option<&str> {
    const KEY: &str = "\"request_id\":\"";
    let start = line.find(KEY)? + KEY.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// Requests a connection has received and not yet answered:
/// (request id hash or 0, receive time, op).
#[derive(Default)]
struct Pending(Vec<(u64, u64, &'static str)>);

/// A [`TcpTransport`] whose connections record, while tracing is on, a
/// `server.turnaround.<op>` span from the end of each request's receive to
/// the end of its response's send, with a `transport.send.<op>` child
/// covering the send call and counting the bytes sent. With tracing off it
/// only forwards.
pub struct TracedTransport {
    inner: TcpTransport,
}

impl TracedTransport {
    pub fn bind(addr: &str) -> Result<TracedTransport, ServiceError> {
        Ok(TracedTransport {
            inner: TcpTransport::bind(addr)?,
        })
    }
}

impl Transport for TracedTransport {
    type Conn = TracedConn;

    fn accept(&self) -> Result<Option<TracedConn>, ServiceError> {
        Ok(self.inner.accept()?.map(|inner| TracedConn {
            inner,
            pending: Arc::new(Mutex::new(Pending::default())),
        }))
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

pub struct TracedConn {
    inner: TcpConnection,
    pending: Arc<Mutex<Pending>>,
}

struct TracedWriter {
    inner: Box<dyn ConnectionWriter>,
    pending: Arc<Mutex<Pending>>,
}

/// Sends `line` through `send`, recording the spans when tracing is on.
fn traced_send(
    pending: &Mutex<Pending>,
    line: &str,
    send: impl FnOnce() -> Result<(), ServiceError>,
) -> Result<(), ServiceError> {
    if !trace::enabled() {
        return send();
    }
    let t0 = trace::now_ns();
    let result = send();
    let t1 = trace::now_ns();
    let rid = request_id_of(line).map_or(0, trace::rid_of);
    let entry = {
        let mut pending = pending.lock().expect("pending-request mutex poisoned");
        let at = pending.0.iter().position(|&(r, _, _)| r == rid);
        at.map(|i| pending.0.remove(i))
    };
    if let Some((_, received, op)) = entry {
        let bytes = line.len() as u64 + 1;
        let turnaround =
            trace::record(&format!("server.turnaround.{op}"), received, t1, rid, bytes);
        trace::record_child(
            &format!("transport.send.{op}"),
            t0,
            t1,
            rid,
            bytes,
            turnaround,
        );
    }
    result
}

impl Connection for TracedConn {
    fn receive(&mut self) -> Result<Option<String>, ServiceError> {
        let line = self.inner.receive()?;
        if let (Some(line), true) = (&line, trace::enabled()) {
            let rid = request_id_of(line).map_or(0, trace::rid_of);
            self.pending
                .lock()
                .expect("pending-request mutex poisoned")
                .0
                .push((rid, trace::now_ns(), op_of(line)));
        }
        Ok(line)
    }

    fn send(&mut self, line: &str) -> Result<(), ServiceError> {
        let inner = &mut self.inner;
        traced_send(&self.pending, line, || inner.send(line))
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn writer(&self) -> Option<Box<dyn ConnectionWriter>> {
        let inner = self.inner.writer()?;
        Some(Box::new(TracedWriter {
            inner,
            pending: Arc::clone(&self.pending),
        }))
    }
}

impl ConnectionWriter for TracedWriter {
    fn send(&mut self, line: &str) -> Result<(), ServiceError> {
        let inner = &mut self.inner;
        traced_send(&self.pending, line, || inner.send(line))
    }
}

/// A [`Server`] running on its own thread; stopped and joined on drop.
pub struct RunningServer {
    server: Arc<Server<TracedTransport>>,
    thread: Option<JoinHandle<Result<(), ServiceError>>>,
}

impl RunningServer {
    pub fn start(service: DpService) -> RunningServer {
        let transport = TracedTransport::bind("127.0.0.1:0").expect("bind a loopback port");
        let server = Arc::new(Server::new(service, transport));
        let runner = Arc::clone(&server);
        let thread = std::thread::spawn(move || runner.run());
        RunningServer {
            server,
            thread: Some(thread),
        }
    }

    pub fn addr(&self) -> String {
        self.server.addr()
    }

    pub fn service(&self) -> &DpService {
        self.server.service()
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.server.shutdown();
        if let Some(thread) = self.thread.take() {
            // Connections still open keep `run` draining; the workloads
            // drop their clients before the server.
            let _ = thread.join();
        }
    }
}

/// Runs one request line through the service layers in process, the way
/// the server does, with a `request.<op>` span over `protocol.parse.<op>`
/// (`parse_line` + `Request::from_value`), `service.handle.<op>` and
/// `protocol.render.<op>`. Returns whether the request succeeded.
pub fn handle_in_process(service: &DpService, line: &str, op: &str, rid: u64) -> bool {
    let root = trace::open(&format!("request.{op}"), rid);
    let request = trace::time(&format!("protocol.parse.{op}"), rid, root, || {
        parse_line(line).and_then(|v| Request::from_value(&v))
    });
    let response = request.and_then(|r| {
        trace::time(&format!("service.handle.{op}"), rid, root, || {
            service.handle(r, None)
        })
    });
    let ok = match response {
        Ok(value) => {
            trace::time(&format!("protocol.render.{op}"), rid, root, || {
                render_line(&value)
            });
            true
        }
        Err(_) => false,
    };
    trace::close(root);
    ok
}

/// A client-side line connection with a read deadline, so a lost
/// response fails the run instead of hanging it.
pub fn connect(addr: &str) -> TcpConnection {
    let stream = TcpStream::connect(addr).expect("connect to the server under test");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set a read deadline");
    TcpConnection::from_stream(stream).expect("wrap the client stream")
}

/// One request line out, one response line back.
pub fn call(conn: &mut TcpConnection, line: &str) -> Result<String, ServiceError> {
    conn.send(line)?;
    conn.receive()?
        .ok_or_else(|| ServiceError::Io("server closed the connection".into()))
}

pub fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

/// A scratch directory inside the working directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = PathBuf::from(".relbench")
            .join("tmp")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create a scratch directory");
        TempDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
