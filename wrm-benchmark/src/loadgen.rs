//! The open-loop HTTP load generator.
//!
//! Requests follow a schedule of due times fixed before the run, so a
//! slow server receives the same offered load and its queue can grow.
//! Each connection owns every `conns`-th schedule slot and sends them in
//! order on one keep-alive connection; a request waiting behind its
//! connection's previous one is sent late, and that wait counts: every
//! latency is measured from the request's due time, and the generator's
//! own lateness (send time minus due time) is kept so a run whose
//! generator fell behind can be recognised. A request that errors at the
//! transport level fails, and the reconnect that follows counts as that
//! failure.

use std::time::{Duration, Instant};
use wrm_serve::client::{Client, Response};

/// One request template.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET` or `POST`.
    pub method: &'static str,
    /// Request path, e.g. `/v1/sweep`.
    pub path: &'static str,
    /// JSON body, if any.
    pub body: Option<String>,
}

/// What happened to one scheduled request.
#[derive(Debug)]
pub struct Sample {
    /// Index into the schedule.
    pub slot: usize,
    /// Index into the request templates.
    pub request: usize,
    /// When the request was due.
    pub due: Instant,
    /// When it was sent.
    pub sent: Instant,
    /// When its response was complete.
    pub done: Instant,
    /// HTTP status and body, or the transport error.
    pub response: Result<Response, String>,
}

impl Sample {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request, in milliseconds.
    pub fn lateness_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Runs `schedule` — `(due offset from epoch, request index)` pairs in
/// due order — against `addr` from `conns` connections, one thread
/// each. Nothing is sent at or after `epoch + stop`: slots due later, or
/// still waiting behind their connection by then, are left out. Samples
/// come back in schedule order.
pub fn run(
    addr: &str,
    epoch: Instant,
    schedule: &[(Duration, usize)],
    requests: &[Request],
    conns: usize,
    stop: Duration,
) -> Result<Vec<Sample>, String> {
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || connection(addr, epoch, schedule, requests, conns, c, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "load generator thread panicked".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()
    })?
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?
    .into_iter()
    .flatten()
    .collect();
    samples.sort_by_key(|s| s.slot);
    Ok(samples)
}

fn connection(
    addr: &str,
    epoch: Instant,
    schedule: &[(Duration, usize)],
    requests: &[Request],
    conns: usize,
    c: usize,
    stop: Duration,
) -> Result<Vec<Sample>, String> {
    let mut client = Client::connect(addr)?;
    let mut out = Vec::new();
    for (slot, &(offset, request)) in schedule.iter().enumerate().skip(c).step_by(conns) {
        if offset >= stop || Instant::now() >= epoch + stop {
            break;
        }
        let due = epoch + offset;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let r = &requests[request];
        let sent = Instant::now();
        let response = client.request(r.method, r.path, r.body.as_deref());
        let done = Instant::now();
        if response.is_err() {
            client = Client::connect(addr)?;
        }
        out.push(Sample {
            slot,
            request,
            due,
            sent,
            done,
            response,
        });
    }
    Ok(out)
}

/// Checks a response against the expected 200 body, byte for byte.
pub fn check_body(response: &Result<Response, String>, expected: &[u8]) -> Result<(), String> {
    let r = response.as_ref().map_err(Clone::clone)?;
    if r.status != 200 {
        return Err(format!("status {}: {}", r.status, r.text().trim_end()));
    }
    if r.body != expected {
        let at = r
            .body
            .iter()
            .zip(expected)
            .position(|(a, b)| a != b)
            .unwrap_or(r.body.len().min(expected.len()));
        return Err(format!(
            "body differs from the in-process render at byte {at} ({} vs {} bytes)",
            r.body.len(),
            expected.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(body: &str) -> Result<Response, String> {
        Ok(Response {
            status: 200,
            body: body.as_bytes().to_vec(),
        })
    }

    #[test]
    fn byte_check_accepts_identity_and_rejects_a_perturbed_body() {
        let expected = b"lcls on Cori Haswell: makespan 1000.00 s\n";
        let same = ok("lcls on Cori Haswell: makespan 1000.00 s\n");
        assert_eq!(check_body(&same, expected), Ok(()));
        let perturbed = ok("lcls on Cori Haswell: makespan 1000.01 s\n");
        let err = check_body(&perturbed, expected).unwrap_err();
        assert!(err.contains("byte 37"), "{err}");
        let truncated = ok("lcls on Cori Haswell");
        assert!(check_body(&truncated, expected).is_err());
        let status = Ok(Response {
            status: 400,
            body: expected.to_vec(),
        });
        assert!(check_body(&status, expected).is_err());
        assert!(check_body(&Err("reset".into()), expected).is_err());
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let due = Instant::now();
        let s = Sample {
            slot: 0,
            request: 0,
            due,
            sent: due + Duration::from_millis(30),
            done: due + Duration::from_millis(50),
            response: ok(""),
        };
        assert!((s.latency_ms() - 50.0).abs() < 1e-9);
        assert!((s.lateness_ms() - 30.0).abs() < 1e-9);
    }
}
