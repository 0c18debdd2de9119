//! The untraced, closed-loop measured phase: one client thread sends SQL
//! text to `Session`, one clock reading per call boundary, nothing else
//! inside the loop but the tally of what came back.
//!
//! The reference host is a shared virtual machine whose speed drops by a
//! third to a half for seconds to minutes at a time while an ALU-bound loop
//! beside it keeps its pace: the disturbance is external, and it only ever
//! subtracts. The workloads are deterministic, so the phase is run as
//! several **replicas** that do identical work (passes over the pool;
//! fresh sessions fed the same stream on the drift workload) and the
//! reported run is [`compose`]d chunk by chunk from the least-disturbed
//! replica of each chunk. How much was discarded is printed beside it.

use crate::fixture::Traffic;
use regq_serve::Route;
use regq_sql::{QueryOutput, Session, SqlError};
use std::time::Instant;

/// Equal slices of the composed run whose throughput is printed, so the
/// spread inside a run is visible.
pub const SEGMENTS: usize = 20;

/// What one pass over the traffic observed.
#[derive(Default)]
pub struct Replica {
    /// Per-call latency in nanoseconds (saturating at ~4.29 s).
    pub lat_ns: Vec<u32>,
    pub model: u64,
    pub exact: u64,
    pub degraded: u64,
    /// Statements answered `EmptySubspace`.
    pub nulls: Vec<usize>,
    /// Statements that failed otherwise, with the error.
    pub errors: Vec<(usize, String)>,
    /// 1 where the statement was model-served (drift stream only).
    pub model_flags: Vec<u8>,
}

impl Replica {
    pub fn answers(&self) -> u64 {
        self.model + self.exact + self.degraded
    }

    pub fn wall_s(&self) -> f64 {
        self.lat_ns.iter().map(|&v| f64::from(v)).sum::<f64>() * 1e-9
    }

    /// What must be equal between replicas of a deterministic workload.
    pub fn outcome(&self) -> (u64, u64, u64, usize, usize) {
        (
            self.model,
            self.exact,
            self.degraded,
            self.nulls.len(),
            self.errors.len(),
        )
    }
}

/// One pass over the traffic.
pub fn run(session: &Session, traffic: &Traffic) -> Replica {
    let per_call = traffic.per_call;
    let track_flags = traffic.phase_len.is_some();
    let mut r = Replica {
        lat_ns: Vec::with_capacity(traffic.calls.len()),
        ..Replica::default()
    };
    let tally = |r: &mut Replica, out: QueryOutput| {
        match out.route {
            Route::Model => r.model += 1,
            Route::Exact => r.exact += 1,
            Route::Degraded => r.degraded += 1,
        }
        if track_flags {
            r.model_flags.push(u8::from(out.route == Route::Model));
        }
    };
    let mut prev = Instant::now();
    let mut tick = |r: &mut Replica| {
        let now = Instant::now();
        r.lat_ns
            .push(u32::try_from((now - prev).as_nanos()).unwrap_or(u32::MAX));
        prev = now;
    };
    for (c, sql) in traffic.calls.iter().enumerate() {
        if per_call == 1 {
            let out = session.execute(sql);
            tick(&mut r);
            match out {
                Ok(o) => tally(&mut r, o),
                Err(SqlError::EmptySubspace) => {
                    if track_flags {
                        r.model_flags.push(0);
                    }
                    r.nulls.push(c);
                }
                Err(e) => r.errors.push((c, e.to_string())),
            }
        } else {
            let out = session.execute_batch(sql);
            tick(&mut r);
            match out {
                Ok(outs) => {
                    for o in outs {
                        tally(&mut r, o);
                    }
                }
                // A script is all-or-nothing: every statement of a failed
                // one counts as failed.
                Err(e) => {
                    let msg = e.to_string();
                    r.errors
                        .extend((0..per_call).map(|k| (c * per_call + k, msg.clone())));
                }
            }
        }
    }
    r
}

/// The run composed from the least-disturbed replica of each chunk.
pub struct Composed {
    /// Per-call latencies of one pass, each chunk taken from the replica
    /// that ran it fastest.
    pub lat_ns: Vec<u32>,
    /// Wall of the composed pass.
    pub wall_s: f64,
    /// Mean wall of a replica as it actually ran.
    pub raw_wall_s: f64,
}

impl Composed {
    /// Share of the replicas' wall time that composition discarded.
    pub fn disturbance(&self) -> f64 {
        1.0 - self.wall_s / self.raw_wall_s
    }

    /// Throughput of each of [`SEGMENTS`] equal slices, calls/s.
    pub fn segment_rates(&self) -> Vec<f64> {
        let n = self.lat_ns.len();
        let segments = SEGMENTS.min(n);
        (0..segments)
            .map(|s| {
                let slice = &self.lat_ns[s * n / segments..(s + 1) * n / segments];
                let ns: u64 = slice.iter().map(|&v| u64::from(v)).sum();
                slice.len() as f64 / (ns as f64 * 1e-9)
            })
            .collect()
    }
}

/// Compose one pass from `replicas`, in chunks of `chunk_calls` calls.
pub fn compose(replicas: &[Replica], chunk_calls: usize) -> Composed {
    let calls = replicas[0].lat_ns.len();
    let mut lat_ns = Vec::with_capacity(calls);
    let mut start = 0;
    while start < calls {
        let end = (start + chunk_calls).min(calls);
        let best = replicas
            .iter()
            .map(|r| &r.lat_ns[start..end])
            .min_by_key(|chunk| chunk.iter().map(|&v| u64::from(v)).sum::<u64>())
            .expect("at least one replica");
        lat_ns.extend_from_slice(best);
        start = end;
    }
    let wall_s = lat_ns.iter().map(|&v| f64::from(v)).sum::<f64>() * 1e-9;
    Composed {
        lat_ns,
        wall_s,
        raw_wall_s: replicas.iter().map(Replica::wall_s).sum::<f64>() / replicas.len() as f64,
    }
}

/// Latency at quantile `p` of an ascending slice, in µs: the mean of the
/// 1% of samples centred on the quantile's rank, so the clock's
/// granularity does not quantise the reading.
pub fn quantile_us(sorted_ns: &[u32], p: f64) -> f64 {
    let n = sorted_ns.len() as f64;
    let lo = (n * (p - 0.005)).max(0.0) as usize;
    let hi = ((n * (p + 0.005)) as usize).clamp(lo + 1, sorted_ns.len());
    let band = &sorted_ns[lo.min(sorted_ns.len() - 1)..hi];
    band.iter().map(|&v| f64::from(v)).sum::<f64>() / band.len() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition_takes_each_chunk_from_its_fastest_replica() {
        let replica = |lat: &[u32]| Replica {
            lat_ns: lat.to_vec(),
            ..Replica::default()
        };
        // Replica 0 is disturbed in the second chunk, replica 1 in the first.
        let c = compose(
            &[
                replica(&[10, 10, 90, 90, 10]),
                replica(&[50, 50, 11, 11, 12]),
            ],
            2,
        );
        assert_eq!(c.lat_ns, [10, 10, 11, 11, 10]);
        assert!((c.wall_s - 52e-9).abs() < 1e-15);
        assert!((c.raw_wall_s - 172e-9).abs() < 1e-15);
        assert!(c.disturbance() > 0.69 && c.disturbance() < 0.70);
    }

    #[test]
    fn quantiles_average_a_band_around_the_rank() {
        let sorted: Vec<u32> = (0..1000).map(|i| i * 1000).collect();
        assert!((quantile_us(&sorted, 0.5) - 499.5).abs() < 1e-9);
        assert!((quantile_us(&sorted, 0.99) - 989.5).abs() < 1e-9);
        assert_eq!(quantile_us(&[7000], 0.99), 7.0);
    }
}
