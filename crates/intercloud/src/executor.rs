//! The inter-cloud block executor: tasks → [`CloudPingRecord`]s, streamed
//! into any [`RecordSink`] with the same bounded-memory, thread-invariant
//! pipeline as the user campaign ([`cloudy_measure::run_blocked`]): workers
//! run blocks while the calling thread drains them in plan order.
//!
//! Each task probes one directed region pair at one hour, over *both*
//! route planes — private first, public second (the record emission
//! order). Paths are pure functions of the pair, and samples are pure
//! functions of (seed, src, dst, seq, hour), so the record stream is a
//! pure function of the task sequence: byte-identical across thread
//! counts.

use crate::error::IntercloudError;
use crate::plan::{plan, roster, CloudTask, IntercloudConfig};
use cloudy_cloud::RegionId;
use cloudy_measure::{run_blocked, CloudPingRecord, RecordSink, TaskOutcome, BLOCK_TASKS};
use cloudy_netsim::intercloud::{cloud_path_pair, cloud_ping_at, CloudPath};
use std::collections::HashMap;

/// Tallies of one inter-cloud run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CloudRunStats {
    /// Tasks executed (each emits two records, one per route class).
    pub tasks: u64,
    /// Records whose probe delivered.
    pub delivered: u64,
    /// Records lost to the path loss model.
    pub lost: u64,
}

/// Resolve both route-class paths of one pair, memoized per block.
/// `cloud_path_pair` is a pure function of the pair, so caching changes
/// when paths are built, never what they contain.
fn paths_of(
    cache: &mut HashMap<(RegionId, RegionId), [CloudPath; 2]>,
    src: RegionId,
    dst: RegionId,
) -> Result<[CloudPath; 2], IntercloudError> {
    if let Some(p) = cache.get(&(src, dst)) {
        return Ok(p.clone());
    }
    let p = cloud_path_pair(src, dst).ok_or_else(|| {
        IntercloudError::data(format!("region pair {}->{} not in the region table", src.0, dst.0))
    })?;
    cache.insert((src, dst), p.clone());
    Ok(p)
}

/// Execute one block of tasks. Emission order within a task is private
/// then public; blocks are drained in plan order by the caller.
fn run_block(
    seed: u64,
    tasks: &[CloudTask],
) -> Result<(Vec<CloudPingRecord>, CloudRunStats), IntercloudError> {
    let mut cache = HashMap::new();
    let mut out = Vec::with_capacity(tasks.len() * 2);
    let mut stats = CloudRunStats::default();
    for &CloudTask { src, dst, hour, seq } in tasks {
        stats.tasks += 1;
        for path in paths_of(&mut cache, src, dst)? {
            let outcome = match cloud_ping_at(seed, &path, seq, hour) {
                Some(rtt) => {
                    stats.delivered += 1;
                    TaskOutcome::Ok(rtt)
                }
                None => {
                    stats.lost += 1;
                    TaskOutcome::Lost
                }
            };
            out.push(CloudPingRecord { src, dst, route: path.route, outcome, hour });
        }
    }
    Ok((out, stats))
}

/// Execute a pre-built task slice into `sink` (see [`run_into`] for the
/// planned entry point). Blocks run on up to `cfg.threads` workers and
/// drain in plan order, so the record stream is invariant under the
/// thread count.
pub fn execute_tasks_into(
    cfg: &IntercloudConfig,
    tasks: &[CloudTask],
    sink: &mut impl RecordSink,
) -> Result<CloudRunStats, IntercloudError> {
    let mut totals = CloudRunStats::default();
    run_blocked(
        cfg.threads,
        BLOCK_TASKS,
        tasks,
        |_lane, block| run_block(cfg.seed, block),
        |result| {
            let (records, stats) = result?;
            for r in records {
                sink.sink_cloud(r)?;
            }
            totals.tasks += stats.tasks;
            totals.delivered += stats.delivered;
            totals.lost += stats.lost;
            Ok::<(), IntercloudError>(())
        },
    )?;
    Ok(totals)
}

/// Plan and run the full inter-cloud campaign described by `cfg`,
/// streaming records into `sink`.
pub fn run_into(
    cfg: &IntercloudConfig,
    sink: &mut impl RecordSink,
) -> Result<CloudRunStats, IntercloudError> {
    cfg.validate()?;
    let roster = roster(cfg);
    if roster.len() < 2 {
        return Err(IntercloudError::config("providers", "roster needs at least two regions"));
    }
    execute_tasks_into(cfg, &plan(cfg, &roster), sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_cloud::{Provider, RouteClass};
    use cloudy_measure::CloudPingSet;

    fn small_cfg(threads: usize) -> IntercloudConfig {
        IntercloudConfig {
            seed: 7,
            regions_per_provider: 1,
            hours: 2,
            samples_per_hour: 1,
            threads,
            ..IntercloudConfig::default()
        }
    }

    fn run(cfg: &IntercloudConfig) -> (Vec<CloudPingRecord>, CloudRunStats) {
        let mut set = CloudPingSet::default();
        let stats = run_into(cfg, &mut set).expect("run succeeds");
        (set.pings, stats)
    }

    #[test]
    fn emits_two_records_per_task_private_first() {
        let (records, stats) = run(&small_cfg(1));
        assert_eq!(records.len() as u64, stats.tasks * 2);
        assert_eq!(stats.delivered + stats.lost, stats.tasks * 2);
        assert!(stats.delivered > 0);
        for pair in records.chunks(2) {
            assert_eq!(pair[0].route, RouteClass::PrivateWan);
            assert_eq!(pair[1].route, RouteClass::PublicTransit);
            assert_eq!((pair[0].src, pair[0].dst), (pair[1].src, pair[1].dst));
            assert_eq!(pair[0].hour, pair[1].hour);
        }
    }

    #[test]
    fn stream_is_invariant_under_threads() {
        let baseline = run(&small_cfg(1)).0;
        assert_eq!(baseline, run(&small_cfg(8)).0, "thread count changed the stream");
        assert_eq!(baseline, run(&small_cfg(3)).0);
    }

    #[test]
    fn covers_all_nine_providers_both_directions() {
        let (records, _) = run(&small_cfg(4));
        let mut srcs = std::collections::BTreeSet::new();
        let mut dsts = std::collections::BTreeSet::new();
        for r in &records {
            srcs.insert(cloudy_cloud::region::by_id(r.src).expect("real region").provider);
            dsts.insert(r.dst_provider().expect("real region"));
        }
        for p in Provider::FIGURE_NINE {
            assert!(srcs.contains(&p), "{p} never probed");
            assert!(dsts.contains(&p), "{p} never probed back");
        }
    }

    #[test]
    fn delivered_private_never_beats_public_in_the_stream() {
        let (records, _) = run(&small_cfg(2));
        for pair in records.chunks(2) {
            if let (Some(pri), Some(pub_)) = (pair[0].rtt_ms(), pair[1].rtt_ms()) {
                assert!(
                    pri <= pub_,
                    "{:?}->{:?}: private {pri} > public {pub_}",
                    pair[0].src,
                    pair[0].dst
                );
            }
        }
    }

    #[test]
    fn regions_outside_the_table_are_rejected() {
        let cfg = small_cfg(1);
        let mut tasks = plan(&cfg, &roster(&cfg));
        tasks[0].dst = RegionId(u16::MAX);
        let mut set = CloudPingSet::default();
        assert!(execute_tasks_into(&cfg, &tasks, &mut set).is_err());
    }
}
