//! `query_mix`: a closed loop of store queries — one client, no think
//! time — over the `repro`-sized Speedchecker campaign held in memory.
//!
//! Set-up writes the campaign into a store and opens it; only the queries
//! are timed, so this is the one workload where the store's read path
//! (chunk pruning, projection, aggregation pushdown) does most of the work.
//! The campaign workloads write stores and this one reads them, so a
//! write-side change that costs reads shows here.

use super::{layer_metrics, peak_rss_mb, run_campaign, secs_since, Rep, Tally, THREADS};
use crate::check::Fnv;
use crate::trace::Recorder;
use cloudy_cloud::Provider;
use cloudy_geo::CountryCode;
use cloudy_netsim::build::{build, WorldConfig};
use cloudy_netsim::Simulator;
use cloudy_obs::Obs;
use cloudy_probes::speedchecker;
use cloudy_store::{
    Agg, ChunkRows, GroupId, GroupKey, GroupRow, GroupTable, Moments, P2Quantile, Query, Reader,
    RecordKind, RttRow, ScanFilter, ScanStats, StoreError, Writer, WriterOptions,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The five query classes the generator cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Footer-pruned `.provider(p).values()`.
    ProviderValues,
    /// Dictionary-pruned `.country(c).summary()`.
    CountrySummary,
    /// Full-scan `group_by(CountryRegion)` with `Moments | P2Quantiles`,
    /// the shape of Fig. 3; the slowest class.
    CountryRegionGrouped,
    /// `.hours(lo, lo + 72).max_rtt_ms(100).rows()`.
    HoursRttRows,
    /// `.country(c).provider(p).rows()`.
    CountryProviderRows,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::ProviderValues,
        Class::CountrySummary,
        Class::CountryRegionGrouped,
        Class::HoursRttRows,
        Class::CountryProviderRows,
    ];

    pub fn name(self) -> &'static str {
        &self.span()["store.query.".len()..]
    }

    /// The class's span in a traced run, under the `store.query` layer.
    fn span(self) -> &'static str {
        match self {
            Class::ProviderValues => "store.query.q_provider_values",
            Class::CountrySummary => "store.query.q_country_summary",
            Class::CountryRegionGrouped => "store.query.q_country_region_grouped",
            Class::HoursRttRows => "store.query.q_hours_rtt_rows",
            Class::CountryProviderRows => "store.query.q_country_provider_rows",
        }
    }
}

/// One generated query.
#[derive(Debug, Clone, Copy)]
struct Spec {
    class: Class,
    provider: Provider,
    country: CountryCode,
    hour_lo: u64,
}

/// A query's result, comparable with the oracle's.
#[derive(Debug, PartialEq)]
enum Answer {
    Values(Vec<f64>),
    Summary(GroupRow),
    Grouped(GroupTable),
    Rows(Vec<RttRow>),
}

impl Spec {
    fn query(&self) -> Query {
        let q = Query::rtts().threads(THREADS);
        match self.class {
            Class::ProviderValues => q.provider(self.provider),
            Class::CountrySummary => q.country(self.country),
            Class::CountryRegionGrouped => q
                .group_by(GroupKey::CountryRegion)
                .aggregate(Agg::Moments | Agg::P2Quantiles),
            Class::HoursRttRows => q.hours(self.hour_lo, self.hour_lo + 72).max_rtt_ms(100.0),
            Class::CountryProviderRows => q.country(self.country).provider(self.provider),
        }
    }

    fn run(&self, reader: &Reader) -> Result<(Answer, ScanStats), StoreError> {
        let q = self.query();
        Ok(match self.class {
            Class::ProviderValues => {
                let (v, s) = q.values(reader)?;
                (Answer::Values(v), s)
            }
            Class::CountrySummary => {
                let (row, s) = q.summary(reader)?;
                (Answer::Summary(row), s)
            }
            Class::CountryRegionGrouped => {
                let (table, s) = q.grouped(reader)?;
                (Answer::Grouped(table), s)
            }
            Class::HoursRttRows | Class::CountryProviderRows => {
                let (rows, s) = q.rows(reader)?;
                (Answer::Rows(rows), s)
            }
        })
    }

    fn matches(&self, r: &RttRow) -> bool {
        match self.class {
            Class::ProviderValues => r.provider == self.provider,
            Class::CountrySummary => r.country == self.country,
            Class::CountryRegionGrouped => true,
            Class::HoursRttRows => {
                (self.hour_lo..=self.hour_lo + 72).contains(&r.hour) && r.rtt_ms <= 100.0
            }
            Class::CountryProviderRows => r.country == self.country && r.provider == self.provider,
        }
    }

    /// The decode-then-filter answer over `truth`, folded with the same
    /// public accumulators the query engine uses, in the same order.
    fn oracle(&self, truth: &[RttRow]) -> Answer {
        let hits = truth.iter().filter(|r| self.matches(r));
        match self.class {
            Class::ProviderValues => Answer::Values(hits.map(|r| r.rtt_ms).collect()),
            Class::CountrySummary => {
                let mut acc = Acc::default();
                hits.for_each(|r| acc.observe(r.rtt_ms));
                Answer::Summary(acc.finish())
            }
            Class::CountryRegionGrouped => {
                let mut groups: BTreeMap<GroupId, Acc> = BTreeMap::new();
                for r in hits {
                    groups
                        .entry(GroupId::CountryRegion(r.country, r.region))
                        .or_default()
                        .observe(r.rtt_ms);
                }
                Answer::Grouped(groups.into_iter().map(|(k, a)| (k, a.finish())).collect())
            }
            Class::HoursRttRows | Class::CountryProviderRows => {
                Answer::Rows(hits.copied().collect())
            }
        }
    }
}

/// Moments plus P² median and 95th percentile: the default aggregate set.
struct Acc {
    count: u64,
    moments: Moments,
    p50: P2Quantile,
    p95: P2Quantile,
}

impl Default for Acc {
    fn default() -> Acc {
        Acc {
            count: 0,
            moments: Moments::default(),
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
        }
    }
}

impl Acc {
    fn observe(&mut self, x: f64) {
        self.count += 1;
        self.moments.observe(x);
        self.p50.observe(x);
        self.p95.observe(x);
    }

    fn finish(self) -> GroupRow {
        GroupRow {
            count: self.count,
            moments: Some(self.moments),
            p50: self.p50.estimate(),
            p95: self.p95.estimate(),
            values: None,
        }
    }
}

impl Answer {
    fn digest(&self, h: &mut Fnv) {
        let row = |h: &mut Fnv, g: &GroupRow| {
            h.u64(g.count);
            if let Some(m) = &g.moments {
                h.f64(m.mean());
                h.f64(m.variance());
            }
            h.f64(g.p50.unwrap_or(f64::NAN));
            h.f64(g.p95.unwrap_or(f64::NAN));
        };
        match self {
            Answer::Values(v) => v.iter().for_each(|&x| h.f64(x)),
            Answer::Summary(g) => row(h, g),
            Answer::Grouped(table) => {
                for (id, g) in table {
                    if let GroupId::CountryRegion(c, r) = id {
                        h.bytes(c.as_str().as_bytes());
                        h.u64(u64::from(r.0));
                    }
                    row(h, g);
                }
            }
            Answer::Rows(rows) => {
                for r in rows {
                    h.bytes(&[r.kind as u8, r.provider as u8]);
                    h.bytes(r.country.as_str().as_bytes());
                    h.u64(u64::from(r.region.0));
                    h.u64(r.hour);
                    h.f64(r.rtt_ms);
                }
            }
        }
    }
}

/// SplitMix64, seeded from the benchmark seed: the query generator.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

fn generate(seed: u64, n: usize, countries: &[CountryCode], hours: u64) -> Vec<Spec> {
    let mut rng = SplitMix(seed ^ 0x5155_4552_594d_4958);
    let windows = hours.saturating_sub(72).max(1) as usize;
    (0..n)
        .map(|i| Spec {
            class: Class::ALL[i % Class::ALL.len()],
            provider: Provider::ALL[rng.below(Provider::ALL.len())],
            country: countries[rng.below(countries.len())],
            hour_lo: rng.below(windows) as u64,
        })
        .collect()
}

/// Every RTT-bearing row of the store, decoded in full through
/// `Reader::for_each` and projected here: delivered pings, and delivered
/// traceroutes whose last hop answered.
fn truth_rows(reader: &Reader) -> Result<Vec<RttRow>, StoreError> {
    let mut rows = Vec::new();
    reader.for_each(&ScanFilter::default(), |chunk| match chunk {
        ChunkRows::Pings(pings) => rows.extend(pings.iter().filter_map(|p| {
            p.rtt_ms().map(|rtt_ms| RttRow {
                kind: RecordKind::Ping,
                provider: p.provider,
                country: p.country,
                region: p.region,
                hour: p.hour,
                rtt_ms,
            })
        })),
        ChunkRows::Traces(traces) => {
            rows.extend(traces.iter().filter(|t| t.outcome.is_ok()).filter_map(|t| {
                t.end_to_end_ms().map(|rtt_ms| RttRow {
                    kind: RecordKind::Trace,
                    provider: t.provider,
                    country: t.country,
                    region: t.region,
                    hour: t.hour,
                    rtt_ms,
                })
            }))
        }
        ChunkRows::CloudPings(_) => {}
    })?;
    Ok(rows)
}

pub fn run(seed: u64, smoke: bool, rec: &Recorder, ready: &mut dyn FnMut()) -> Rep {
    let study = super::repro::config(seed, smoke);
    let mut cfg = study.campaign_config();
    let obs = if rec.is_on() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    cfg.obs = obs.clone();
    let queries = if smoke { 25 } else { 400 };
    let mut rep = Rep::default();
    let mut tally = Tally::default();

    let setup = rec.span("bench.setup", || {
        let world = rec.span("netsim.build", || {
            build(&WorldConfig {
                seed,
                isps_per_country: study.isps_per_country,
                countries: None,
            })
        });
        let pop = rec.span("probes.population", || {
            speedchecker::population(&world, study.sc_fraction, seed ^ 0x5C)
        });
        let sim = Simulator::new(world.net);
        let mut writer = Writer::new(Vec::new(), pop.platform, WriterOptions::default())
            .map_err(|e| e.to_string())?;
        writer.set_obs(obs.clone());
        run_campaign(rec, &mut tally, &cfg, &sim, &pop, &mut writer).map_err(|e| e.to_string())?;
        let (bytes, summary) = rec
            .span("store.finish", || writer.finish())
            .map_err(|e| e.to_string())?;
        tally.store_rows = summary.ping_rows + summary.trace_rows + summary.cloud_rows;
        tally.store_bytes = bytes.len() as u64;
        rec.span("store.open", || Reader::from_bytes(bytes))
            .map_err(|e| e.to_string())
    });
    ready();
    let reader = match setup {
        Ok(r) => r,
        Err(e) => {
            rep.error("setup", e);
            return rep;
        }
    };
    rep.extra(
        "store_bytes_per_record",
        tally.store_bytes as f64 / tally.store_rows.max(1) as f64,
    );

    // Untimed: decode the whole store once, draw the queries, and check
    // one query of every class against the decode-then-filter oracle.
    let truth = match truth_rows(&reader) {
        Ok(t) => t,
        Err(e) => {
            rep.error("oracle_decode", e);
            return rep;
        }
    };
    let countries: Vec<CountryCode> = truth
        .iter()
        .map(|r| r.country)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    rep.check("store_has_rows", !countries.is_empty(), || {
        "the campaign stored no RTT rows".into()
    });
    if countries.is_empty() {
        return rep;
    }
    let specs = generate(
        seed,
        queries,
        &countries,
        u64::from(study.duration_days) * 24,
    );
    for spec in specs.iter().take(Class::ALL.len()) {
        let name = format!("oracle.{}", spec.class.name());
        match spec.run(&reader) {
            Ok((answer, _)) => {
                let want = spec.oracle(&truth);
                rep.check(&name, answer == want, || {
                    format!("query answer differs from the oracle for {spec:?}")
                });
            }
            Err(e) => rep.error(&name, e),
        }
    }
    drop(truth);

    let mut digest = Fnv::default();
    let t0 = Instant::now();
    rec.span("bench.timed", || {
        for spec in &specs {
            let q0 = Instant::now();
            let result = rec.span(spec.class.span(), || spec.run(&reader));
            rep.latencies
                .push((spec.class.name(), secs_since(q0) * 1e3));
            match result {
                Ok((answer, stats)) => {
                    rep.attempted += 1;
                    answer.digest(&mut digest);
                    rep.records += stats.rows_matched;
                    tally.scan_decoded += stats.rows_decoded;
                    tally.scan_matched += stats.rows_matched;
                    tally.scan_chunks += stats.chunks_total as u64;
                    tally.scan_pruned += stats.chunks_pruned as u64;
                }
                Err(e) => rep.error(spec.class.name(), e),
            }
        }
    });
    rep.wall_s = secs_since(t0);
    rep.peak_rss_mb = peak_rss_mb();
    rep.digest = digest.finish();
    rep.extra("queries_per_s", specs.len() as f64 / rep.wall_s);
    if rec.is_on() {
        tally.read_obs(&obs);
        rep.extra.extend(layer_metrics(rec, &tally));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_seeded_and_cycles_the_classes() {
        let countries = [CountryCode::new("DE"), CountryCode::new("JP")];
        let a = generate(7, 12, &countries, 240);
        let b = generate(7, 12, &countries, 240);
        let c = generate(8, 12, &countries, 240);
        let render = |v: &[Spec]| format!("{v:?}");
        assert_eq!(render(&a), render(&b));
        assert_ne!(render(&a), render(&c));
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.class, Class::ALL[i % 5]);
            assert!(s.hour_lo + 72 <= 240);
        }
        assert_eq!(Class::CountrySummary.name(), "q_country_summary");
    }
}
