//! The open-loop frame generator.
//!
//! Independent users do not wait for each other, so frames are sent on a
//! fixed schedule whatever the server is doing, and each frame's latency is
//! measured from the moment it was *due*, not from the moment it was
//! written.  A server stall therefore shows in every frame that came due
//! during it (the test below proves this), instead of being hidden by a
//! generator that politely waited.  The generator also records how late it
//! released each frame, so a run in which the generator itself fell behind
//! can be recognised and rejected.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use admitd::wire::{self, Request, Response};

/// What one open-loop pass observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Responses in frame order (one connection answers in order).
    pub responses: Vec<Response>,
    /// Latency of each answered frame, from its due time (ns).
    pub latency_ns: Vec<u64>,
    /// How late the generator released each sent frame (ns).
    pub late_ns: Vec<u64>,
    /// Frames sent but not answered before the deadline.
    pub unanswered: usize,
}

/// Below this much time to the next due frame the generator spins instead
/// of sleeping, so a sleep's wake-up delay cannot make it late.
const SPIN_NS: u64 = 30_000;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    secs: i64,
    nanos: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Ask the kernel to wake this thread from timed waits without the default
/// 50 µs of timer slack.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the slack
    // in ns) and only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Sleep until `stream` is readable (or writable, when `want_write`) or
/// `timeout_ns` has passed, whichever is first.
fn wait(stream: &TcpStream, want_write: bool, timeout_ns: u64) {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let timeout = Timespec {
        secs: (timeout_ns / 1_000_000_000) as i64,
        nanos: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fd` and `timeout` are live for the call, `nfds` is 1 and a
    // null signal mask leaves the thread's mask unchanged.  An error or
    // timeout only ends the wait early; the caller re-checks everything.
    unsafe {
        ppoll(&mut fd, 1, &timeout, std::ptr::null());
    }
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn invalid(e: wire::WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Send `frames[i]` at `start + due_ns[i]` over `stream` (already past the
/// protocol magic) and collect every response, giving up `grace` after the
/// last frame was due.  One thread does both directions with non-blocking
/// I/O, so a slow reader never delays the send schedule.
///
/// # Errors
/// Transport errors and undecodable responses.
///
/// # Panics
/// Panics when `due_ns` is not sorted or its length differs from
/// `frames`.
pub fn run(
    stream: &mut TcpStream,
    frames: &[Request],
    due_ns: &[u64],
    start: Instant,
    grace: Duration,
) -> io::Result<Outcome> {
    assert_eq!(frames.len(), due_ns.len(), "one due time per frame");
    assert!(due_ns.is_sorted(), "due times are sorted");
    let mut bytes = Vec::with_capacity(frames.len() * 68);
    let mut ends = Vec::with_capacity(frames.len());
    for frame in frames {
        wire::encode_request(frame, &mut bytes);
        ends.push(bytes.len());
    }
    let n = frames.len();
    let give_up =
        due_ns.last().copied().unwrap_or(0) + u64::try_from(grace.as_nanos()).unwrap_or(u64::MAX);

    stream.set_nonblocking(true)?;
    tighten_timer_slack();
    let mut out = Outcome {
        responses: Vec::with_capacity(n),
        latency_ns: Vec::with_capacity(n),
        late_ns: Vec::with_capacity(n),
        unanswered: 0,
    };
    let mut released = 0usize;
    let mut written = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    while out.responses.len() < n {
        let now = nanos_since(start);
        while released < n && due_ns[released] <= now {
            out.late_ns.push(now - due_ns[released]);
            released += 1;
        }
        let want = if released == 0 { 0 } else { ends[released - 1] };
        if written < want {
            match stream.write(&bytes[written..want]) {
                Ok(k) => written += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed with responses outstanding",
                ))
            }
            Ok(k) => {
                let at = nanos_since(start);
                inbuf.extend_from_slice(&chunk[..k]);
                let mut consumed = 0;
                while let Some((s, e)) = wire::next_frame(&inbuf[consumed..]).map_err(invalid)? {
                    let response = wire::decode_response(&inbuf[consumed + s..consumed + e])
                        .map_err(invalid)?;
                    let index = out.responses.len();
                    if index >= released {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "response to a frame that was never sent",
                        ));
                    }
                    out.latency_ns.push(at.saturating_sub(due_ns[index]));
                    out.responses.push(response);
                    consumed += e;
                }
                inbuf.drain(..consumed);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if now > give_up {
                    break;
                }
                let until = if released < n {
                    due_ns[released]
                } else {
                    give_up
                };
                let idle_ns = until.saturating_sub(nanos_since(start));
                if idle_ns > SPIN_NS {
                    wait(stream, written < want, idle_ns - SPIN_NS);
                }
            }
            Err(e) => return Err(e),
        }
    }
    stream.set_nonblocking(false)?;
    out.unanswered = released - out.responses.len();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use admitd::wire::{AdmitFrame, Status};
    use cellsim::ServiceClass;
    use std::net::TcpListener;
    use std::sync::mpsc;

    fn admit(id: u64) -> Request {
        Request::Admit(AdmitFrame {
            cell: 0,
            id,
            class: ServiceClass::Text,
            is_handoff: false,
            bandwidth: 1,
            time: id as f64,
            holding_time: 10.0,
            speed_kmh: 30.0,
            angle_deg: 0.0,
            distance_m: Some(100.0),
        })
    }

    /// A responder that answers every frame at once, except that it stalls
    /// for `stall` right after answering frame `stall_after`, reporting the
    /// stall's start and end.
    fn stalling_responder(
        listener: TcpListener,
        stall_after: u64,
        stall: Duration,
        report: mpsc::Sender<(Instant, Instant)>,
    ) {
        let (mut stream, _) = listener.accept().expect("client connects");
        stream.set_nodelay(true).expect("nodelay");
        let mut magic = [0u8; 4];
        stream.read_exact(&mut magic).expect("magic");
        let mut inbuf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut out = Vec::new();
        loop {
            let k = match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(k) => k,
            };
            inbuf.extend_from_slice(&chunk[..k]);
            let mut consumed = 0;
            out.clear();
            let mut stall_now = false;
            while let Some((s, e)) = wire::next_frame(&inbuf[consumed..]).expect("valid frame") {
                let request = wire::decode_request(&inbuf[consumed + s..consumed + e])
                    .expect("valid request");
                let response = Response {
                    status: Status::Accept,
                    id: request.id(),
                    score: 1.0,
                };
                wire::encode_response(&response, &mut out);
                stall_now |= request.id() == stall_after;
                consumed += e;
            }
            inbuf.drain(..consumed);
            stream.write_all(&out).expect("write responses");
            if stall_now {
                let began = Instant::now();
                std::thread::sleep(stall);
                report.send((began, Instant::now())).expect("report stall");
            }
        }
    }

    #[test]
    fn a_stalled_responder_inflates_every_frame_due_during_the_stall() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        let (tx, rx) = mpsc::channel();
        let stall = Duration::from_millis(40);
        let responder = std::thread::spawn(move || stalling_responder(listener, 200, stall, tx));

        let n = 1_000u64;
        let gap_ns = 100_000; // one frame every 100 µs: 10k frames/s
        let frames: Vec<Request> = (0..n).map(admit).collect();
        let due: Vec<u64> = (0..n).map(|i| i * gap_ns).collect();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.write_all(&wire::MAGIC).expect("magic");
        let start = Instant::now();
        let outcome = run(&mut stream, &frames, &due, start, Duration::from_secs(5)).expect("run");
        drop(stream);
        responder.join().expect("responder");
        let (began, ended) = rx.recv().expect("the responder stalled once");

        assert_eq!(outcome.responses.len(), n as usize);
        assert_eq!(outcome.unanswered, 0);
        let stall_start = u64::try_from((began - start).as_nanos()).unwrap();
        let stall_end = u64::try_from((ended - start).as_nanos()).unwrap();
        let during: Vec<usize> = (0..n as usize)
            .filter(|&i| due[i] >= stall_start && due[i] < stall_end)
            .collect();
        assert!(
            during.len() >= 300,
            "the stall covers many due times, got {}",
            during.len()
        );
        for &i in &during {
            // The frame was due at `due[i]` but could not be answered before
            // the responder woke up: its latency spans the rest of the stall.
            assert!(
                outcome.latency_ns[i] >= stall_end - due[i],
                "frame {i} due {} ns before the stall ended reported only {} ns",
                stall_end - due[i],
                outcome.latency_ns[i]
            );
        }
        // The first frame due in the stall waited about the whole stall.
        let first = during[0];
        assert!(outcome.latency_ns[first] as f64 >= 0.9 * stall.as_nanos() as f64);
        // Frames due well after the stall are fast again.
        let tail = outcome.latency_ns[n as usize - 1];
        assert!(tail < 5_000_000, "post-stall frame took {tail} ns");
    }
}
