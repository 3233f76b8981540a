//! A small vendored readiness poller over `poll(2)`.
//!
//! This is the kernel-facing part of the RPC server's reactor — the piece
//! that multiplexes nonblocking sockets onto its one thread, the same
//! scheduling discipline the paper applies to operators (many ready units,
//! few execution resources). It is deliberately tiny: level-triggered
//! readiness only, `usize` tokens, no timers, no ownership of the file
//! descriptors it watches. The workspace vendors no `libc` crate, so the one
//! syscall is declared directly against the platform libc that every Rust
//! binary already links.
//!
//! Cost: each [`Poller::wait`] hands the kernel the whole watched set and
//! scans all of it for results, so a wait is O(watched fds), not O(ready
//! fds), and `register`/`reregister`/`deregister` find an fd by a linear
//! scan. One backend is enough because the O(ready) one measured no better:
//! the poller once also ran on Linux epoll, and the `rpc_load` bench's
//! 256/1,024/2,048-connection sweep read the same on either backend (each
//! ranged over 64k–148k jobs/s from run to run, wider than any difference
//! between them), as did the two-connection `rpc-open` workload. `poll(2)`
//! is POSIX, so this one backend builds on every Unix without a `cfg` fork.

use std::io;
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Interest bit: wake when the fd has bytes to read (or EOF / error).
pub const READABLE: u8 = 0b01;
/// Interest bit: wake when the fd can accept writes.
pub const WRITABLE: u8 = 0b10;

/// One readiness event returned by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: usize,
    /// The fd is readable (includes EOF and error conditions, so a read
    /// will not block and will surface the condition). An event that is
    /// not readable reports writability.
    pub readable: bool,
}

/// The C library's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

const EINTR: i32 = 4;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// `Duration` → the millisecond argument `poll` takes. Rounds up so a
/// 100 µs timeout does not busy-spin at 0 ms; `None` blocks.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            let ms = if ms == 0 && !d.is_zero() { 1 } else { ms };
            ms.min(c_int::MAX as u128) as c_int
        }
    }
}

/// `poll(2)` event bits for `interest`.
fn mask(interest: u8) -> c_short {
    let mut m = 0;
    if interest & READABLE != 0 {
        m |= POLLIN;
    }
    if interest & WRITABLE != 0 {
        m |= POLLOUT;
    }
    m
}

fn not_registered() -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, "fd not registered")
}

/// A level-triggered readiness poller over raw fds and `usize` tokens.
///
/// The poller never owns the fds it watches — callers keep their
/// `TcpListener`/`TcpStream` handles alive and deregister before
/// closing. Registering the same fd twice is an error; use
/// [`Poller::reregister`] to change interest.
pub struct Poller {
    /// The watched set, in the layout `poll(2)` reads.
    fds: Vec<PollFd>,
    /// `tokens[i]` is the token of `fds[i]`.
    tokens: Vec<usize>,
}

impl Poller {
    /// An empty poller.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            fds: Vec::new(),
            tokens: Vec::new(),
        })
    }

    fn position(&self, fd: RawFd) -> Option<usize> {
        self.fds.iter().position(|p| p.fd == fd)
    }

    /// Starts watching `fd` under `token` for `interest` bits.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: u8) -> io::Result<()> {
        if self.position(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.fds.push(PollFd {
            fd,
            events: mask(interest),
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    /// Changes the interest bits (and token) of an already-watched `fd`.
    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: u8) -> io::Result<()> {
        let i = self.position(fd).ok_or_else(not_registered)?;
        self.fds[i].events = mask(interest);
        self.tokens[i] = token;
        Ok(())
    }

    /// Stops watching `fd`. Call before closing the fd.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self.position(fd).ok_or_else(not_registered)?;
        self.fds.swap_remove(i);
        self.tokens.swap_remove(i);
        Ok(())
    }

    /// Blocks until at least one watched fd is ready or `timeout` elapses
    /// (`None` blocks indefinitely), appending readiness to `out`. `out` is
    /// cleared first; an interrupted wait (EINTR) returns empty, not an
    /// error.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        // SAFETY: `fds` is a live, exclusively borrowed array of `len`
        // `struct pollfd`s, which `poll` only reads and writes in place.
        let n = unsafe {
            poll(
                self.fds.as_mut_ptr(),
                self.fds.len() as c_ulong,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.raw_os_error() == Some(EINTR) {
                return Ok(());
            }
            return Err(e);
        }
        if n == 0 {
            return Ok(());
        }
        for (p, &token) in self.fds.iter_mut().zip(&self.tokens) {
            let bits = std::mem::take(&mut p.revents);
            if bits != 0 {
                out.push(PollEvent {
                    token,
                    readable: bits & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    /// Long enough that a ready fd always reports within it.
    const READY: Option<Duration> = Some(Duration::from_secs(5));
    /// Short window in which an idle fd must stay silent.
    const IDLE: Option<Duration> = Some(Duration::from_millis(50));

    /// `n` connected (client, nonblocking server-side) socket pairs.
    fn pairs(n: usize) -> Vec<(TcpStream, TcpStream)> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        (0..n)
            .map(|_| {
                let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (server, _) = listener.accept().unwrap();
                server.set_nonblocking(true).unwrap();
                (client, server)
            })
            .collect()
    }

    fn tokens(events: &[PollEvent]) -> Vec<usize> {
        let mut t: Vec<usize> = events.iter().map(|e| e.token).collect();
        t.sort_unstable();
        t
    }

    /// Waits until exactly the sorted tokens `want` are ready, all readable.
    /// Bytes written to several peers may land over more than one wait, so
    /// each earlier wait may see only part of `want`, never anything else.
    fn wait_for(poller: &mut Poller, want: &[usize]) {
        let mut events = Vec::new();
        for _ in 0..100 {
            poller.wait(&mut events, READY).unwrap();
            let got = tokens(&events);
            assert!(got.iter().all(|t| want.contains(t)), "{got:?} ⊄ {want:?}");
            assert!(events.iter().all(|e| e.readable), "{events:?}");
            if got == want {
                return;
            }
        }
        panic!("tokens {want:?} never all became ready");
    }

    #[test]
    fn socket_readability_and_writability() {
        let mut poller = Poller::new().unwrap();
        let (mut client, mut server) = pairs(1).pop().unwrap();
        let fd = server.as_raw_fd();
        let mut events = Vec::new();

        // A fresh connected socket with an empty send buffer wakes a
        // READABLE | WRITABLE registration, and not as readable.
        poller.register(fd, 42, READABLE | WRITABLE).unwrap();
        poller.wait(&mut events, READY).unwrap();
        let ev = events.iter().find(|e| e.token == 42).expect("an event");
        assert!(!ev.readable, "an idle socket is writable, not readable");

        // Narrowed to READABLE, the idle socket stays silent until the peer
        // writes.
        poller.reregister(fd, 42, READABLE).unwrap();
        poller.wait(&mut events, IDLE).unwrap();
        assert!(events.is_empty(), "idle READABLE socket woke: {events:?}");
        client.write_all(b"ping").unwrap();
        poller.wait(&mut events, READY).unwrap();
        assert_eq!(tokens(&events), [42]);
        assert!(events[0].readable);

        // Drained, it is silent again; a peer close then reads as readable.
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        poller.wait(&mut events, IDLE).unwrap();
        assert!(events.is_empty(), "drained socket woke: {events:?}");
        drop(client);
        poller.wait(&mut events, READY).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable));
        poller.deregister(fd).unwrap();
    }

    #[test]
    fn deregistering_one_socket_keeps_the_others() {
        let mut poller = Poller::new().unwrap();
        let mut socks = pairs(3);
        for (token, (_, server)) in socks.iter().enumerate() {
            poller
                .register(server.as_raw_fd(), token, READABLE)
                .unwrap();
        }
        let mut events = Vec::new();

        // Removing the first entry moves the last one into its slot.
        poller.deregister(socks[0].1.as_raw_fd()).unwrap();
        socks[0].0.write_all(b"x").unwrap();
        poller.wait(&mut events, IDLE).unwrap();
        assert!(events.is_empty(), "a deregistered fd woke: {events:?}");

        socks[2].0.write_all(b"x").unwrap();
        wait_for(&mut poller, &[2]);
        socks[1].0.write_all(b"x").unwrap();
        wait_for(&mut poller, &[1, 2]);

        // The moved entry is still found by its fd.
        poller
            .reregister(socks[2].1.as_raw_fd(), 7, READABLE)
            .unwrap();
        wait_for(&mut poller, &[1, 7]);
    }

    #[test]
    fn registration_errors() {
        let mut poller = Poller::new().unwrap();
        let (_client, server) = pairs(1).pop().unwrap();
        let fd = server.as_raw_fd();
        poller.register(fd, 0, READABLE).unwrap();
        let twice = poller.register(fd, 1, READABLE).unwrap_err();
        assert_eq!(twice.kind(), io::ErrorKind::AlreadyExists);
        poller.deregister(fd).unwrap();
        let unknown = poller.deregister(fd).unwrap_err();
        assert_eq!(unknown.kind(), io::ErrorKind::NotFound);
        let unknown = poller.reregister(fd, 0, READABLE).unwrap_err();
        assert_eq!(unknown.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn timeout_rounds_up_not_down() {
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(250))), 250);
    }
}
