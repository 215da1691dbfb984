//! `gcol_serve::serve_lines` driven in process over in-memory pipes: the
//! real protocol path without sockets or child processes.

use gcol_graph::Csr;
use gcol_serve::{serve_lines, Service, ServiceConfig, ServiceStats};
use std::io::{self, BufRead, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Resolves named graphs for the server, as `serve_lines` expects.
pub type Resolver = dyn Fn(&str, u32, u64) -> Result<Arc<Csr>, String> + Send + Sync;

/// The server's input: request bytes arrive as chunks over a channel;
/// a closed channel reads as end of file.
struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PipeReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            self.buf = self.rx.recv().unwrap_or_default();
            self.pos = 0;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The server's output: bytes are split into lines and each complete
/// line is handed to the client.
struct PipeWriter {
    tx: Sender<String>,
    pending: Vec<u8>,
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(data);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let rest = self.pending.split_off(end + 1);
            let mut line = std::mem::replace(&mut self.pending, rest);
            line.pop();
            let line = String::from_utf8(line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            // A client that has gone away no longer needs the line.
            let _ = self.tx.send(line);
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One connection to an in-process server thread.
pub struct Server {
    requests: Option<Sender<Vec<u8>>>,
    responses: Receiver<String>,
    thread: Option<JoinHandle<io::Result<ServiceStats>>>,
}

impl Server {
    pub fn start(config: ServiceConfig, resolver: Arc<Resolver>) -> Self {
        let (req_tx, req_rx) = channel();
        let (resp_tx, resp_rx) = channel();
        let reader = PipeReader {
            rx: req_rx,
            buf: Vec::new(),
            pos: 0,
        };
        let writer = PipeWriter {
            tx: resp_tx,
            pending: Vec::new(),
        };
        let thread = std::thread::Builder::new()
            .name("perfbench-serve".into())
            .spawn(move || serve_lines(Service::start(config), reader, writer, &*resolver))
            .expect("spawn the server thread");
        Self {
            requests: Some(req_tx),
            responses: resp_rx,
            thread: Some(thread),
        }
    }

    /// Writes one request line.
    pub fn send(&self, line: &str) {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.requests
            .as_ref()
            .expect("connection open")
            .send(bytes)
            .expect("server thread alive");
    }

    /// Reads the next response line.
    pub fn recv(&self) -> String {
        self.responses
            .recv()
            .expect("server thread closed the connection early")
    }

    /// Closes the connection, lets the server drain and returns its
    /// final stats.
    pub fn finish(mut self) -> ServiceStats {
        self.requests = None;
        self.thread
            .take()
            .expect("joined once")
            .join()
            .expect("server thread panicked")
            .expect("server I/O failed")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.requests = None;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
