//! A small vendored readiness poller: epoll on Linux, `poll(2)` elsewhere.
//!
//! This is the kernel-facing part of the RPC server's reactor — the piece
//! that multiplexes thousands of nonblocking sockets onto its one thread,
//! the same scheduling discipline the paper applies to operators (many
//! ready units, few execution resources). It is deliberately tiny:
//! level-triggered readiness only, `usize` tokens, no timers, no ownership
//! of the file descriptors it watches. The workspace vendors no `libc`
//! crate, so the syscalls are declared directly against the platform libc
//! that every Rust binary already links.
//!
//! Two backends behind one [`Poller`] type:
//!
//! * **epoll** (Linux): O(ready) wakeups — the fleet's front door scales to
//!   thousands of mostly-idle connections.
//! * **`poll(2)`** (any Unix, and the explicit [`Poller::portable`]
//!   constructor): O(watched) per wait, standards-portable, and the fallback
//!   if `epoll_create1` is unavailable at runtime.

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
    /// will not block and will surface the condition).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The peer hung up or the fd errored.
    pub hangup: bool,
}

// --- libc declarations -----------------------------------------------------
//
// Every Rust binary links the platform C library; these are the handful of
// symbols the poller needs, declared by hand because the container vendors
// no `libc` crate.

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
    #[cfg(target_os = "linux")]
    fn close(fd: c_int) -> c_int;
}

#[cfg(target_os = "linux")]
mod epoll_sys {
    use super::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// The kernel's `struct epoll_event`; packed on x86-64 (the one ABI
    /// where the kernel chose no padding).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Debug, Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

/// `Duration` → the millisecond argument `poll`/`epoll_wait` take. Rounds
/// up so a 100 µs timeout does not busy-spin at 0 ms; `None` blocks.
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

// --- epoll backend ---------------------------------------------------------

#[cfg(target_os = "linux")]
struct Epoll {
    epfd: RawFd,
    buf: Vec<epoll_sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Epoll {
    fn new() -> io::Result<Epoll> {
        let epfd = unsafe { epoll_sys::epoll_create1(epoll_sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            epfd,
            buf: vec![epoll_sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn mask(interest: u8) -> u32 {
        let mut m = epoll_sys::EPOLLRDHUP;
        if interest & READABLE != 0 {
            m |= epoll_sys::EPOLLIN;
        }
        if interest & WRITABLE != 0 {
            m |= epoll_sys::EPOLLOUT;
        }
        m
    }

    fn ctl(&mut self, op: c_int, fd: RawFd, token: usize, interest: u8) -> io::Result<()> {
        let mut ev = epoll_sys::EpollEvent {
            events: Self::mask(interest),
            data: token as u64,
        };
        let rc = unsafe { epoll_sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        let n = unsafe {
            epoll_sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as c_int,
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
        for i in 0..n as usize {
            let ev = self.buf[i];
            let bits = ev.events;
            let hangup =
                bits & (epoll_sys::EPOLLHUP | epoll_sys::EPOLLERR | epoll_sys::EPOLLRDHUP) != 0;
            out.push(PollEvent {
                token: ev.data as usize,
                readable: bits & epoll_sys::EPOLLIN != 0 || hangup,
                writable: bits & epoll_sys::EPOLLOUT != 0,
                hangup,
            });
        }
        // A full buffer means more events may be pending; grow so the next
        // wait drains them in one call.
        if n as usize == self.buf.len() {
            let len = self.buf.len() * 2;
            self.buf
                .resize(len, epoll_sys::EpollEvent { events: 0, data: 0 });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

// --- poll(2) backend -------------------------------------------------------

struct Portable {
    fds: Vec<PollFd>,
    tokens: Vec<usize>,
}

impl Portable {
    fn new() -> Portable {
        Portable {
            fds: Vec::new(),
            tokens: Vec::new(),
        }
    }

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

    fn position(&self, fd: RawFd) -> Option<usize> {
        self.fds.iter().position(|p| p.fd == fd)
    }

    fn register(&mut self, fd: RawFd, token: usize, interest: u8) -> io::Result<()> {
        if self.position(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.fds.push(PollFd {
            fd,
            events: Self::mask(interest),
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: u8) -> io::Result<()> {
        match self.position(fd) {
            Some(i) => {
                self.fds[i].events = Self::mask(interest);
                self.tokens[i] = token;
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self.position(fd) {
            Some(i) => {
                self.fds.swap_remove(i);
                self.tokens.swap_remove(i);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
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
        for (i, p) in self.fds.iter_mut().enumerate() {
            let bits = p.revents;
            p.revents = 0;
            if bits == 0 {
                continue;
            }
            let hangup = bits & (POLLHUP | POLLERR | POLLNVAL) != 0;
            out.push(PollEvent {
                token: self.tokens[i],
                readable: bits & POLLIN != 0 || hangup,
                writable: bits & POLLOUT != 0,
                hangup,
            });
        }
        Ok(())
    }
}

// --- the unified poller ----------------------------------------------------

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    Portable(Portable),
}

/// A level-triggered readiness poller over raw fds and `usize` tokens.
///
/// The poller never owns the fds it watches — callers keep their
/// `TcpListener`/`TcpStream` handles alive and deregister before
/// closing. Registering the same fd twice is an error; use
/// [`Poller::reregister`] to change interest.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// The platform's best backend: epoll on Linux (falling back to
    /// `poll(2)` if the kernel refuses), `poll(2)` elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            if let Ok(ep) = Epoll::new() {
                return Ok(Poller {
                    backend: Backend::Epoll(ep),
                });
            }
        }
        Self::portable()
    }

    /// The portable `poll(2)` backend, explicitly — O(watched) per wait,
    /// but POSIX-universal. Exists so tests exercise both code paths on
    /// one machine.
    pub fn portable() -> io::Result<Poller> {
        Ok(Poller {
            backend: Backend::Portable(Portable::new()),
        })
    }

    /// Which backend this poller runs on (`"epoll"` or `"poll"`).
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            Backend::Portable(_) => "poll",
        }
    }

    /// Starts watching `fd` under `token` for `interest` bits.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: u8) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.ctl(epoll_sys::EPOLL_CTL_ADD, fd, token, interest),
            Backend::Portable(p) => p.register(fd, token, interest),
        }
    }

    /// Changes the interest bits (and token) of an already-watched `fd`.
    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: u8) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.ctl(epoll_sys::EPOLL_CTL_MOD, fd, token, interest),
            Backend::Portable(p) => p.reregister(fd, token, interest),
        }
    }

    /// Stops watching `fd`. Call before closing the fd.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.ctl(epoll_sys::EPOLL_CTL_DEL, fd, 0, 0),
            Backend::Portable(p) => p.deregister(fd),
        }
    }

    /// Blocks until at least one watched fd is ready or `timeout` elapses
    /// (`None` blocks indefinitely), appending readiness to `out`. `out` is
    /// cleared first; an interrupted wait (EINTR) returns empty, not an
    /// error.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.wait(out, timeout),
            Backend::Portable(p) => p.wait(out, timeout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn pollers() -> Vec<Poller> {
        vec![Poller::new().unwrap(), Poller::portable().unwrap()]
    }

    #[test]
    fn socket_readability_and_writability() {
        for mut poller in pollers() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();

            // A fresh connected socket with an empty send buffer: writable,
            // not readable.
            poller
                .register(server.as_raw_fd(), 42, READABLE | WRITABLE)
                .unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            let ev = events.iter().find(|e| e.token == 42).expect("an event");
            assert!(ev.writable && !ev.readable, "{}", poller.backend_name());

            // Bytes from the peer flip it readable; interest narrowed to
            // READABLE stops reporting writable.
            client.write_all(b"ping").unwrap();
            poller.reregister(server.as_raw_fd(), 42, READABLE).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            let ev = events.iter().find(|e| e.token == 42).expect("an event");
            assert!(ev.readable && !ev.writable, "{}", poller.backend_name());

            // Peer close: readable (EOF) and flagged as hangup by at least
            // one of the condition bits once the read side drains.
            drop(client);
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 42 && e.readable),
                "{}",
                poller.backend_name()
            );
            poller.deregister(server.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn timeout_rounds_up_not_down() {
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(250))), 250);
    }
}
