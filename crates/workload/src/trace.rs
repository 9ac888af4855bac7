//! Request/poll trace records: the raw material for learning profiles and
//! change rates from production logs (paper §7: profiles can come "from a
//! simple learning algorithm that monitors the system request log"; §2:
//! change-frequency estimates come from observed polls).
//!
//! Two line-oriented CSV formats, chosen to be trivially producible by any
//! log shipper:
//!
//! * **access log** — `time,element` per user request;
//! * **poll log** — `time,element,changed` per refresh poll (`changed` is
//!   `0`/`1` or `false`/`true`), recording whether the poll found new
//!   content.
//!
//! Lines starting with `#` and a leading `time,element[,changed]` header
//! are skipped, so an access log round-trips through
//! [`write_access_log`].

use std::fmt::Write as _;
use std::io::BufRead;

use freshen_core::error::{CoreError, Result};
use freshen_core::estimate::PollHistory;
use freshen_core::profile::ProfileEstimator;

/// One user request against the mirror.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessRecord {
    /// Event time (periods).
    pub time: f64,
    /// Accessed element.
    pub element: usize,
}

/// One refresh poll and whether it detected a change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PollRecord {
    /// Event time (periods).
    pub time: f64,
    /// Polled element.
    pub element: usize,
    /// Did the poll find new content?
    pub changed: bool,
}

fn is_skippable(line: &str, header: &str) -> bool {
    let trimmed = line.trim();
    trimmed.is_empty() || trimmed.starts_with('#') || trimmed.eq_ignore_ascii_case(header)
}

fn parse_err(what: &'static str, line_no: usize, line: &str) -> CoreError {
    CoreError::InvalidConfig(format!("{what} at line {line_no}: `{line}`"))
}

/// Parse one access-log data line (`time,element`). `line_no` is 1-based
/// and only used for error messages.
fn parse_access_line(line: &str, line_no: usize) -> Result<AccessRecord> {
    let mut parts = line.trim().split(',');
    let time: f64 = parts
        .next()
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| parse_err("bad access time", line_no, line))?;
    let element: usize = parts
        .next()
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| parse_err("bad access element", line_no, line))?;
    if parts.next().is_some() {
        return Err(parse_err("trailing fields in access record", line_no, line));
    }
    if !time.is_finite() || time < 0.0 {
        return Err(parse_err(
            "negative or non-finite access time",
            line_no,
            line,
        ));
    }
    Ok(AccessRecord { time, element })
}

/// Parse one poll-log data line (`time,element,changed`).
fn parse_poll_line(line: &str, line_no: usize) -> Result<PollRecord> {
    let mut parts = line.trim().split(',');
    let time: f64 = parts
        .next()
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| parse_err("bad poll time", line_no, line))?;
    let element: usize = parts
        .next()
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| parse_err("bad poll element", line_no, line))?;
    let changed = match parts.next().map(|v| v.trim()) {
        Some("0") | Some("false") => false,
        Some("1") | Some("true") => true,
        _ => return Err(parse_err("bad poll changed flag", line_no, line)),
    };
    if parts.next().is_some() {
        return Err(parse_err("trailing fields in poll record", line_no, line));
    }
    if !time.is_finite() || time < 0.0 {
        return Err(parse_err("negative or non-finite poll time", line_no, line));
    }
    Ok(PollRecord {
        time,
        element,
        changed,
    })
}

/// Streaming access-log reader: yields one [`AccessRecord`] per data line
/// of any [`BufRead`] source, holding only the current line in memory —
/// this is how the online engine replays multi-gigabyte request logs.
///
/// Comments, blank lines, and the `time,element` header are skipped, like
/// the eager [`parse_access_log`] (which is now a wrapper over this).
#[derive(Debug)]
pub struct AccessLogReader<R> {
    input: R,
    buf: String,
    line_no: usize,
}

impl<R: BufRead> AccessLogReader<R> {
    /// Wrap a buffered reader (a `BufReader<File>`, `&[u8]`, …).
    pub fn new(input: R) -> Self {
        AccessLogReader {
            input,
            buf: String::new(),
            line_no: 0,
        }
    }
}

impl<R: BufRead> Iterator for AccessLogReader<R> {
    type Item = Result<AccessRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        next_data_line(
            &mut self.input,
            &mut self.buf,
            &mut self.line_no,
            "time,element",
        )
        .map(|res| res.and_then(|line_no| parse_access_line(self.buf.trim_end(), line_no)))
    }
}

/// Streaming poll-log reader: the `time,element,changed` counterpart of
/// [`AccessLogReader`].
#[derive(Debug)]
pub struct PollLogReader<R> {
    input: R,
    buf: String,
    line_no: usize,
}

impl<R: BufRead> PollLogReader<R> {
    /// Wrap a buffered reader (a `BufReader<File>`, `&[u8]`, …).
    pub fn new(input: R) -> Self {
        PollLogReader {
            input,
            buf: String::new(),
            line_no: 0,
        }
    }
}

impl<R: BufRead> Iterator for PollLogReader<R> {
    type Item = Result<PollRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        next_data_line(
            &mut self.input,
            &mut self.buf,
            &mut self.line_no,
            "time,element,changed",
        )
        .map(|res| res.and_then(|line_no| parse_poll_line(self.buf.trim_end(), line_no)))
    }
}

/// Advance `input` to the next non-skippable line, leaving it in `buf`.
/// Returns `None` at end of input, `Some(Ok(line_no))` when `buf` holds a
/// data line, and `Some(Err(_))` on I/O failure.
fn next_data_line(
    input: &mut dyn BufRead,
    buf: &mut String,
    line_no: &mut usize,
    header: &str,
) -> Option<Result<usize>> {
    loop {
        buf.clear();
        match input.read_line(buf) {
            Ok(0) => return None,
            Ok(_) => {
                *line_no += 1;
                if !is_skippable(buf, header) {
                    return Some(Ok(*line_no));
                }
            }
            Err(e) => {
                return Some(Err(CoreError::InvalidConfig(format!(
                    "log read failed after line {line_no}: {e}"
                ))))
            }
        }
    }
}

/// Parse an access log (`time,element` lines) eagerly into a vector —
/// a thin wrapper over the streaming [`AccessLogReader`].
pub fn parse_access_log(text: &str) -> Result<Vec<AccessRecord>> {
    AccessLogReader::new(text.as_bytes()).collect()
}

/// Parse a poll log (`time,element,changed` lines) eagerly into a vector —
/// a thin wrapper over the streaming [`PollLogReader`].
pub fn parse_poll_log(text: &str) -> Result<Vec<PollRecord>> {
    PollLogReader::new(text.as_bytes()).collect()
}

/// Serialize an access log (with header) — inverse of [`parse_access_log`].
pub fn write_access_log(records: &[AccessRecord]) -> String {
    let mut s = String::from("time,element\n");
    for r in records {
        let _ = writeln!(s, "{:.6},{}", r.time, r.element);
    }
    s
}

/// Estimates learned from logs: everything needed to build a [`Problem`]
/// once a bandwidth budget is chosen.
///
/// [`Problem`]: freshen_core::problem::Problem
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedParameters {
    /// Access probabilities (smoothed, strictly positive).
    pub access_probs: Vec<f64>,
    /// Bias-reduced change-rate estimates per element (per period).
    pub change_rates: Vec<f64>,
    /// Number of access records consumed.
    pub accesses_seen: usize,
    /// Number of poll records consumed.
    pub polls_seen: usize,
}

/// Learn access probabilities and change rates from logs.
///
/// * `n` — mirror size; records referencing elements `≥ n` are rejected.
/// * `smoothing` — uniform pseudo-count added to access tallies so
///   never-accessed objects keep a small positive probability.
/// * Elements never polled receive `fallback_rate`.
///
/// Change-rate estimation treats each element's polls as evenly spaced
/// over the time the poll log covers (the Fixed-Order scheduler makes
/// this exact; for irregular logs it is the mean-interval approximation).
/// Each of the log's `m` polls stands for one mean interval, so the span
/// is `(last − first)·m/(m − 1)`: a log shifted in time learns the same
/// rates. A poll log whose polls share one instant covers no time and is
/// rejected.
pub fn learn_from_logs(
    n: usize,
    accesses: &[AccessRecord],
    polls: &[PollRecord],
    smoothing: f64,
    fallback_rate: f64,
) -> Result<LearnedParameters> {
    if n == 0 {
        return Err(CoreError::Empty);
    }
    let mut profile = ProfileEstimator::new(n, 1.0)?;
    for (idx, a) in accesses.iter().enumerate() {
        if a.element >= n {
            return Err(CoreError::InvalidValue {
                what: "access element",
                index: Some(idx),
                value: a.element as f64,
            });
        }
        profile.observe(a.element);
    }

    let (first, last) = polls
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.time), hi.max(p.time))
        });
    let m = polls.len() as f64;
    let span = (last - first) * m / (m - 1.0);
    let covers_time = span > 0.0 && span.is_finite();
    if !polls.is_empty() && !covers_time {
        return Err(CoreError::InvalidValue {
            what: "poll log time span",
            index: None,
            value: last - first,
        });
    }
    let mut poll_counts = vec![0u64; n];
    let mut detections = vec![0u64; n];
    for (idx, p) in polls.iter().enumerate() {
        if p.element >= n {
            return Err(CoreError::InvalidValue {
                what: "poll element",
                index: Some(idx),
                value: p.element as f64,
            });
        }
        poll_counts[p.element] += 1;
        detections[p.element] += u64::from(p.changed);
    }
    let change_rates: Vec<f64> = poll_counts
        .iter()
        .zip(&detections)
        .map(|(&count, &changes_detected)| {
            if count == 0 {
                return fallback_rate;
            }
            // The bias-reduced estimate at a unit interval, rescaled to
            // the element's mean interval span / count (the estimate
            // scales as 1/interval).
            let history = PollHistory {
                polls: count,
                changes_detected,
                interval: 1.0,
            };
            history.estimate_bias_reduced() * count as f64 / span
        })
        .collect();

    Ok(LearnedParameters {
        access_probs: profile.access_probs_smoothed(smoothing),
        change_rates,
        accesses_seen: accesses.len(),
        polls_seen: polls.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_log_roundtrip() {
        let records = vec![
            AccessRecord {
                time: 0.5,
                element: 3,
            },
            AccessRecord {
                time: 1.25,
                element: 0,
            },
        ];
        let text = write_access_log(&records);
        let parsed = parse_access_log(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn parser_skips_comments_blanks_and_header() {
        let text = "# produced by logshipper\n\ntime,element\n0.5,2\n";
        let parsed = parse_access_log(text).unwrap();
        assert_eq!(
            parsed,
            vec![AccessRecord {
                time: 0.5,
                element: 2
            }]
        );
    }

    #[test]
    fn parser_accepts_bool_words_for_changed() {
        let parsed = parse_poll_log("1.0,0,true\n2.0,0,false\n").unwrap();
        assert!(parsed[0].changed && !parsed[1].changed);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_access_log("abc,1").is_err());
        assert!(parse_access_log("1.0").is_err());
        assert!(parse_access_log("1.0,2,extra").is_err());
        assert!(parse_access_log("-1.0,2").is_err());
        assert!(parse_poll_log("1.0,2").is_err());
        assert!(parse_poll_log("1.0,2,maybe").is_err());
    }

    #[test]
    fn parse_error_reports_line_number() {
        let err = parse_access_log("1.0,2\nbogus,3\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn streaming_reader_matches_eager_parser() {
        let text = "# shipped\ntime,element\n0.5,2\n\n1.5,0\n2.5,1\n";
        let eager = parse_access_log(text).unwrap();
        let streamed: Vec<AccessRecord> = AccessLogReader::new(text.as_bytes())
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(streamed, eager);
        assert_eq!(streamed.len(), 3);

        let polls = "time,element,changed\n0.1,1,1\n0.2,2,false\n";
        let eager = parse_poll_log(polls).unwrap();
        let streamed: Vec<PollRecord> = PollLogReader::new(polls.as_bytes())
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(streamed, eager);
    }

    #[test]
    fn streaming_reader_yields_errors_in_place_then_continues() {
        // The iterator surfaces the bad line as an Err item; a consumer
        // may skip it and keep reading — unlike the eager parser, which
        // aborts the whole file.
        let text = "0.5,1\nbogus,9\n1.5,0\n";
        let items: Vec<Result<AccessRecord>> = AccessLogReader::new(text.as_bytes()).collect();
        assert_eq!(items.len(), 3);
        assert!(items[0].is_ok());
        let err = items[1].as_ref().unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert_eq!(items[2].as_ref().unwrap().element, 0);
    }

    #[test]
    fn streaming_reader_is_fused_at_eof() {
        let mut reader = AccessLogReader::new("1.0,0\n".as_bytes());
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().is_none());
        assert!(reader.next().is_none(), "stays exhausted");
    }

    #[test]
    fn streaming_reader_surfaces_io_errors() {
        struct FailingReader;
        impl std::io::Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        impl BufRead for FailingReader {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn consume(&mut self, _: usize) {}
        }
        let mut reader = PollLogReader::new(FailingReader);
        let err = reader.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("disk on fire"), "{err}");
    }

    #[test]
    fn learn_from_logs_recovers_profile_mix() {
        // 3 elements; element 0 accessed 6x, element 1 3x, element 2 1x.
        let accesses: Vec<AccessRecord> = [0, 0, 0, 0, 0, 0, 1, 1, 1, 2]
            .iter()
            .enumerate()
            .map(|(i, &e)| AccessRecord {
                time: i as f64 * 0.1,
                element: e,
            })
            .collect();
        let learned = learn_from_logs(3, &accesses, &[], 0.01, 1.0).unwrap();
        assert!(learned.access_probs[0] > learned.access_probs[1]);
        assert!(learned.access_probs[1] > learned.access_probs[2]);
        assert!(learned.access_probs[2] > 0.0, "smoothing keeps positives");
        let sum: f64 = learned.access_probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn learn_from_logs_recovers_change_rates() {
        // Element 0 polled 100 times over 50 periods (interval 0.5), the
        // ratio of changed polls matching λ = 2: 1 − e^{−1} ≈ 0.632.
        let mut polls = Vec::new();
        for k in 0..100 {
            let t = (k + 1) as f64 * 0.5;
            let changed = k % 5 != 0; // 80% change ratio ⇒ λ ≈ −ln(0.2)/0.5 ≈ 3.2
            polls.push(PollRecord {
                time: t,
                element: 0,
                changed,
            });
        }
        let learned = learn_from_logs(
            2,
            &[AccessRecord {
                time: 0.0,
                element: 0,
            }],
            &polls,
            0.5,
            9.0,
        )
        .unwrap();
        let expected = -(0.2f64.ln()) / 0.5;
        assert!(
            (learned.change_rates[0] - expected).abs() < expected * 0.1,
            "estimated {} vs {expected}",
            learned.change_rates[0]
        );
        // Element 1 never polled: gets the fallback.
        assert_eq!(learned.change_rates[1], 9.0);
    }

    /// A 60-element poll log, 50 polls each over `[offset, offset + 10]`,
    /// element `e` changing on every `(e mod 7) + 1`-th poll and element 59
    /// never.
    fn shifted_polls(offset: f64) -> Vec<PollRecord> {
        (0..50)
            .flat_map(|k| {
                (0..60).map(move |e| PollRecord {
                    time: offset + 10.0 * (k * 60 + e) as f64 / 2_999.0,
                    element: e,
                    changed: e != 59 && k % (e % 7 + 1) == 0,
                })
            })
            .collect()
    }

    #[test]
    fn learn_from_logs_rates_do_not_depend_on_when_the_log_starts() {
        let at = |offset| learn_from_logs(60, &[], &shifted_polls(offset), 0.5, 1.0).unwrap();
        let (early, late) = (at(0.0), at(1000.0));
        for (e, (&a, &b)) in early
            .change_rates
            .iter()
            .zip(&late.change_rates)
            .enumerate()
        {
            assert!((a - b).abs() <= 1e-12 * a.abs(), "element {e}: {a} vs {b}");
        }
        // 3,000 polls over 10 periods: each element's 50 polls span 10.
        let expected = -((50.0 - 50.0 + 0.5) / 50.5f64).ln() * 50.0 / (10.0 * 3_000.0 / 2_999.0);
        assert!((early.change_rates[0] - expected).abs() <= 1e-12 * expected);
    }

    #[test]
    fn learn_from_logs_gives_an_unchanged_element_a_positive_zero() {
        let learned = learn_from_logs(60, &[], &shifted_polls(0.0), 0.5, 1.0).unwrap();
        assert_eq!(learned.change_rates[59].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn learn_from_logs_rejects_a_log_at_one_instant() {
        let polls: Vec<PollRecord> = (0..3)
            .map(|e| PollRecord {
                time: 4.0,
                element: e,
                changed: true,
            })
            .collect();
        let err = learn_from_logs(3, &[], &polls, 0.5, 1.0).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidValue {
                what: "poll log time span",
                ..
            }
        ));
        assert!(learn_from_logs(3, &[], &polls[..1], 0.5, 1.0).is_err());
    }

    #[test]
    fn learn_from_logs_rejects_out_of_range_elements() {
        let accesses = [AccessRecord {
            time: 0.0,
            element: 5,
        }];
        assert!(learn_from_logs(3, &accesses, &[], 0.1, 1.0).is_err());
        let polls = [PollRecord {
            time: 0.0,
            element: 7,
            changed: true,
        }];
        assert!(learn_from_logs(3, &[], &polls, 0.1, 1.0).is_err());
    }

    #[test]
    fn learn_from_logs_empty_mirror_rejected() {
        assert!(learn_from_logs(0, &[], &[], 0.1, 1.0).is_err());
    }
}
