//! `pdip client` — a minimal framed-protocol client for the serve
//! front-end.
//!
//! The client connects once, streams one [`REQ_VERIFY`] frame per
//! transcript blob, and matches the streamed responses back by
//! sequence number (the concurrent server answers in completion
//! order). [`Status::Busy`] rejections are retried with bounded
//! exponential backoff whose jitter is **deterministic** — derived
//! from `(seed, attempt)` through the chaos [`Mutator`] stream, never
//! from wall clock or PID — so a scripted run is reproducible.
//!
//! Outcomes map onto distinct process exit codes (see
//! [`ClientOutcome::exit_code`]): an I/O failure is never conflated
//! with a verifier rejection, and exhausted busy-retries are their own
//! code so callers can distinguish "server overloaded" from "proof
//! rejected".

use crate::chaos::Mutator;
use crate::report::Reporter;
use crate::seed::sub_seed;
use crate::serve::{
    decode_response, read_frame, write_frame, Response, Status, REQ_SHUTDOWN, REQ_STATS, REQ_VERIFY,
};
use pdip_obs::export::esc;
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientOpts {
    /// Server host.
    pub host: String,
    /// Server port.
    pub port: u16,
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
    /// Extra rounds after the first submission for requests answered
    /// [`Status::Busy`].
    pub retries: u32,
    /// Base backoff delay (doubles each attempt).
    pub backoff_base_ms: u64,
    /// Ceiling of the exponential component.
    pub backoff_cap_ms: u64,
    /// Send [`REQ_SHUTDOWN`] after the last response and wait for the
    /// server's final stats frame.
    pub send_shutdown: bool,
}

impl Default for ClientOpts {
    fn default() -> Self {
        ClientOpts {
            host: "127.0.0.1".into(),
            port: 7117,
            seed: 0,
            retries: 5,
            backoff_base_ms: 10,
            backoff_cap_ms: 1000,
            send_shutdown: false,
        }
    }
}

/// The deterministic backoff delay before retry round `attempt`
/// (1-based): `min(base · 2^(attempt-1), cap)` plus a jitter in
/// `[0, base)` drawn from the `(seed, attempt)` mutator stream.
pub fn backoff_delay_ms(seed: u64, attempt: u32, base_ms: u64, cap_ms: u64) -> u64 {
    let shift = u64::from(attempt.saturating_sub(1)).min(20);
    let exp = base_ms.saturating_mul(1u64 << shift).min(cap_ms);
    let jitter = Mutator::new(sub_seed(seed, u64::from(attempt))).next_u64() % base_ms.max(1);
    exp + jitter
}

/// What one [`run_client`] invocation observed.
#[derive(Debug, Default)]
pub struct ClientOutcome {
    /// Final response per submitted item, in submission order (busy
    /// responses that were later retried successfully are replaced by
    /// the retry's outcome).
    pub responses: Vec<(String, Response)>,
    /// Items still answered [`Status::Busy`] after every retry round.
    pub busy_exhausted: Vec<String>,
    /// A transport failure, if one aborted the run.
    pub io_error: Option<String>,
    /// Detail string of the server's final stats frame, when
    /// [`ClientOpts::send_shutdown`] was set and the frame arrived.
    pub shutdown_stats: Option<String>,
}

impl ClientOutcome {
    /// The process exit code: `6` transport failure, `5` busy-retries
    /// exhausted, `3` at least one reject/malformed verdict, `0` all
    /// accepted. Higher codes win when several apply.
    pub fn exit_code(&self) -> i32 {
        if self.io_error.is_some() {
            6
        } else if !self.busy_exhausted.is_empty() {
            5
        } else if self
            .responses
            .iter()
            .any(|(_, r)| matches!(r.status, Status::Reject | Status::Malformed))
        {
            3
        } else {
            0
        }
    }
}

/// Sends every `(name, blob)` item to the server as a [`REQ_VERIFY`]
/// frame, retrying busy rejections with deterministic backoff, and
/// reports one line per final verdict through `reporter`.
pub fn run_client(
    opts: &ClientOpts,
    items: &[(String, Vec<u8>)],
    reporter: &mut Reporter,
) -> ClientOutcome {
    let mut outcome = ClientOutcome::default();
    let mut stream = match TcpStream::connect((opts.host.as_str(), opts.port)) {
        Ok(s) => s,
        Err(e) => {
            outcome.io_error = Some(format!("connect {}:{}: {e}", opts.host, opts.port));
            return outcome;
        }
    };
    // A response should never take longer than a minute; a stuck read
    // is a transport failure, not a hang.
    let _unused = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let _unused = stream.set_nodelay(true);

    let mut finals: Vec<Option<Response>> = vec![None; items.len()];
    let mut pending: Vec<usize> = (0..items.len()).collect();
    let mut next_seq = 0u64;

    for attempt in 0..=opts.retries {
        if pending.is_empty() {
            break;
        }
        if attempt > 0 {
            let delay =
                backoff_delay_ms(opts.seed, attempt, opts.backoff_base_ms, opts.backoff_cap_ms);
            reporter.line(&format!(
                "pdip client: {} busy, retry {attempt}/{} after {delay}ms",
                pending.len(),
                opts.retries
            ));
            std::thread::sleep(Duration::from_millis(delay));
        }
        let mut seq_map: HashMap<u64, usize> = HashMap::new();
        for &idx in &pending {
            let mut frame = Vec::with_capacity(1 + items[idx].1.len());
            frame.push(REQ_VERIFY);
            frame.extend_from_slice(&items[idx].1);
            if let Err(e) = write_frame(&mut stream, &frame) {
                outcome.io_error = Some(format!("send: {e}"));
                return outcome;
            }
            seq_map.insert(next_seq, idx);
            next_seq += 1;
        }
        if let Err(e) = stream.flush() {
            outcome.io_error = Some(format!("send: {e}"));
            return outcome;
        }
        let mut still_busy = Vec::new();
        for _ in 0..pending.len() {
            let payload = match read_frame(&mut stream) {
                Ok(Some(p)) => p,
                Ok(None) => {
                    outcome.io_error = Some("server closed the connection mid-batch".into());
                    return outcome;
                }
                Err(e) => {
                    outcome.io_error = Some(format!("recv: {e}"));
                    return outcome;
                }
            };
            let Some(resp) = decode_response(&payload) else {
                outcome.io_error = Some("undecodable response frame".into());
                return outcome;
            };
            let Some(&idx) = seq_map.get(&resp.seq) else {
                outcome.io_error = Some(format!("response for unknown seq {}", resp.seq));
                return outcome;
            };
            if resp.status == Status::Busy {
                still_busy.push(idx);
            }
            finals[idx] = Some(resp);
        }
        still_busy.sort_unstable();
        pending = still_busy;
    }

    for (idx, (name, _)) in items.iter().enumerate() {
        let resp = finals[idx].take().unwrap_or(Response {
            seq: idx as u64,
            status: Status::Busy,
            detail: "never submitted".into(),
        });
        let detail = if resp.detail.is_empty() { "-" } else { resp.detail.as_str() };
        reporter.line(&format!("{name}: {} {detail}", resp.status.name()));
        if resp.status == Status::Busy {
            outcome.busy_exhausted.push(name.clone());
        }
        outcome.responses.push((name.clone(), resp));
    }

    if opts.send_shutdown {
        if let Err(e) = write_frame(&mut stream, &[REQ_SHUTDOWN]).and_then(|()| stream.flush()) {
            outcome.io_error = Some(format!("shutdown: {e}"));
            return outcome;
        }
        // ShutdownAck arrives first; the final stats frame follows once
        // the server has drained.
        loop {
            match read_frame(&mut stream) {
                Ok(Some(p)) => match decode_response(&p) {
                    Some(r) if r.status == Status::Stats => {
                        reporter.line(&format!("pdip client: server stats: {}", r.detail));
                        outcome.shutdown_stats = Some(r.detail);
                        break;
                    }
                    Some(_) => {}
                    None => {
                        outcome.io_error = Some("undecodable response frame".into());
                        break;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    outcome.io_error = Some(format!("recv stats: {e}"));
                    break;
                }
            }
        }
    }
    outcome
}

/// Re-encodes the server's `k=v`-pair stats detail (the final frame
/// after a drain) as a single JSON object. Purely numeric values stay
/// unquoted; everything else is emitted as a JSON string.
pub fn stats_detail_to_json(detail: &str) -> String {
    let mut out = String::from("{");
    for (i, pair) in detail.split_whitespace().enumerate() {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        out.push_str(&esc(key));
        out.push_str("\": ");
        if !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit()) {
            out.push_str(value);
        } else {
            out.push('"');
            out.push_str(&esc(value));
            out.push('"');
        }
    }
    out.push('}');
    out
}

/// Connects to a running server, sends one [`REQ_STATS`] frame with
/// the given render mode (0 = Prometheus text, 1 = JSON snapshot,
/// 2 = flight-recorder JSONL), and returns the stats payload.
pub fn fetch_stats(host: &str, port: u16, mode: u8) -> Result<String, String> {
    let mut stream =
        TcpStream::connect((host, port)).map_err(|e| format!("connect {host}:{port}: {e}"))?;
    let _unused = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _unused = stream.set_nodelay(true);
    write_frame(&mut stream, &[REQ_STATS, mode])
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send: {e}"))?;
    let payload = match read_frame(&mut stream) {
        Ok(Some(p)) => p,
        Ok(None) => return Err("server closed the connection before answering".into()),
        Err(e) => return Err(format!("recv: {e}")),
    };
    let resp = decode_response(&payload).ok_or_else(|| "undecodable response frame".to_string())?;
    if resp.status != Status::Stats {
        return Err(format!("unexpected response status {}", resp.status.name()));
    }
    Ok(resp.detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for attempt in 1..=8u32 {
            let a = backoff_delay_ms(42, attempt, 10, 200);
            let b = backoff_delay_ms(42, attempt, 10, 200);
            assert_eq!(a, b, "same (seed, attempt) must give the same delay");
            assert!(a < 200 + 10, "delay {a} exceeds cap+jitter at attempt {attempt}");
        }
        // Different attempts draw different jitter streams.
        let delays: Vec<u64> = (1..=6).map(|k| backoff_delay_ms(7, k, 10, 100_000)).collect();
        assert!(delays.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn backoff_grows_exponentially_until_cap() {
        // Jitter < base, so the exponential component dominates.
        let base = 100;
        let d1 = backoff_delay_ms(1, 1, base, 100_000);
        let d4 = backoff_delay_ms(1, 4, base, 100_000);
        assert!(d4 > d1 * 4, "attempt 4 ({d4}ms) should dwarf attempt 1 ({d1}ms)");
        let capped = backoff_delay_ms(1, 30, base, 500);
        assert!(capped < 500 + base, "cap must bound the exponential component");
    }

    #[test]
    fn stats_detail_round_trips_to_json() {
        let detail = "accept=5 reject=2 malformed=0 drained=ok";
        assert_eq!(
            stats_detail_to_json(detail),
            "{\"accept\": 5, \"reject\": 2, \"malformed\": 0, \"drained\": \"ok\"}"
        );
        assert_eq!(stats_detail_to_json(""), "{}");
        // Quotes in a value must not break the JSON framing.
        assert_eq!(stats_detail_to_json("note=a\"b"), "{\"note\": \"a\\\"b\"}");
        // So must control characters: the detail is outside input.
        assert_eq!(stats_detail_to_json("k=a\u{1}b"), "{\"k\": \"a\\u0001b\"}");
    }

    #[test]
    fn exit_code_precedence() {
        let accept = Response { seq: 0, status: Status::Accept, detail: String::new() };
        let reject = Response { seq: 1, status: Status::Reject, detail: "no".into() };
        let mut o = ClientOutcome::default();
        o.responses.push(("a".into(), accept));
        assert_eq!(o.exit_code(), 0);
        o.responses.push(("b".into(), reject));
        assert_eq!(o.exit_code(), 3);
        o.busy_exhausted.push("c".into());
        assert_eq!(o.exit_code(), 5);
        o.io_error = Some("boom".into());
        assert_eq!(o.exit_code(), 6);
    }
}
