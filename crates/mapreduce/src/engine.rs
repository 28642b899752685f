//! The MapReduce execution engine.
//!
//! Faithful to the Hadoop dataflow the paper runs on (§V): inputs are
//! split across map tasks; each map task emits `(key, value)` pairs into
//! hash partitions; the shuffle hands each partition to a reduce task,
//! which sorts by key, groups, and reduces. Everything is in-process and
//! multi-threaded with scoped threads (`std::thread::scope`); Hadoop's
//! counters and per-phase wall times are measured so the join harness can
//! report the quantities Table IV tracks.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobConfig {
    /// Number of parallel map tasks.
    pub map_tasks: usize,
    /// Number of parallel reduce tasks (= shuffle partitions).
    pub reduce_tasks: usize,
}

impl Default for JobConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        JobConfig {
            map_tasks: cores,
            reduce_tasks: cores.max(2) / 2,
        }
    }
}

impl JobConfig {
    /// A single-threaded configuration (deterministic output order).
    pub fn sequential() -> Self {
        JobConfig {
            map_tasks: 1,
            reduce_tasks: 1,
        }
    }
}

/// Hadoop-style job counters plus phase wall times.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobStats {
    /// Records fed to map tasks.
    pub map_input_records: u64,
    /// Key-value pairs emitted by map tasks ("Map output records" —
    /// the column Table IV reports). Counted *before* any combiner runs.
    pub map_output_records: u64,
    /// Records actually crossing the shuffle (= map outputs unless a
    /// combiner shrank them).
    pub shuffled_records: u64,
    /// Approximate bytes crossing the shuffle
    /// (`shuffled_records × size_of::<(K, V)>()`).
    pub shuffle_bytes: u64,
    /// Distinct keys seen by reducers.
    pub reduce_input_groups: u64,
    /// Records fed to reducers (= map outputs that survived the shuffle).
    pub reduce_input_records: u64,
    /// Records emitted by reducers.
    pub reduce_output_records: u64,
    /// Wall time of the map phase.
    pub map_wall: Duration,
    /// Wall time of shuffle + sort + reduce.
    pub reduce_wall: Duration,
    /// End-to-end wall time.
    pub total_wall: Duration,
}

/// The per-map-task emitter: partitions emitted pairs by key hash.
pub struct Emitter<K, V> {
    partitions: Vec<Vec<(K, V)>>,
    emitted: u64,
}

impl<K: Hash, V> Emitter<K, V> {
    fn new(reduce_tasks: usize) -> Self {
        Emitter {
            partitions: (0..reduce_tasks).map(|_| Vec::new()).collect(),
            emitted: 0,
        }
    }

    /// Emits one key-value pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let p = (h.finish() % self.partitions.len() as u64) as usize;
        self.partitions[p].push((key, value));
        self.emitted += 1;
    }

    /// Pairs emitted so far by this task.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

/// Runs a MapReduce job.
///
/// * `inputs` — the input records; they are split into `map_tasks` chunks.
/// * `mapper` — called once per input record with the task's [`Emitter`].
/// * `reducer` — called once per distinct key with all its values
///   (sorted-key order within a partition) and an output sink.
///
/// Returns the concatenated reducer outputs (ordered by partition, then by
/// key within each partition) and the job statistics.
///
/// # Panics
/// Panics if a map or reduce task panics: the job fails as a whole and
/// returns no partial output.
pub fn run_job<I, K, V, O, M, R>(
    config: &JobConfig,
    inputs: Vec<I>,
    mapper: M,
    reducer: R,
) -> (Vec<O>, JobStats)
where
    I: Send,
    K: Ord + Hash + Clone + Send,
    V: Send,
    O: Send,
    M: Fn(I, &mut Emitter<K, V>) + Sync,
    R: Fn(&K, Vec<V>, &mut Vec<O>) + Sync,
{
    run_job_with_combiner(
        config,
        inputs,
        mapper,
        None::<fn(&K, Vec<V>) -> Vec<V>>,
        reducer,
    )
}

/// [`run_job`] with an optional map-side **combiner** — Hadoop's standard
/// shuffle-volume optimisation: each map task sorts and pre-aggregates its
/// own output per key before the shuffle, so commutative-associative
/// reductions (counts, sums) ship one record per key per mapper instead
/// of one per input record.
///
/// The combiner receives a key and that mapper's values for it and
/// returns the (usually shorter) value list to shuffle. Correctness
/// contract is Hadoop's: the reducer must produce the same result whether
/// or not the combiner ran (the tests verify this for the engine).
pub fn run_job_with_combiner<I, K, V, O, M, C, R>(
    config: &JobConfig,
    inputs: Vec<I>,
    mapper: M,
    combiner: Option<C>,
    reducer: R,
) -> (Vec<O>, JobStats)
where
    I: Send,
    K: Ord + Hash + Clone + Send,
    V: Send,
    O: Send,
    M: Fn(I, &mut Emitter<K, V>) + Sync,
    C: Fn(&K, Vec<V>) -> Vec<V> + Sync,
    R: Fn(&K, Vec<V>, &mut Vec<O>) + Sync,
{
    assert!(config.map_tasks >= 1 && config.reduce_tasks >= 1);
    let total_start = Instant::now();
    let mut stats = JobStats {
        map_input_records: inputs.len() as u64,
        ..JobStats::default()
    };

    // ---- Map phase -------------------------------------------------------
    let map_start = Instant::now();
    let n_inputs = inputs.len();
    let chunk = n_inputs.div_ceil(config.map_tasks).max(1);

    // Each map task consumes one chunk and returns its partitioned output.
    let mut chunks: Vec<Vec<I>> = Vec::with_capacity(config.map_tasks);
    {
        let mut it = inputs.into_iter();
        loop {
            let c: Vec<I> = it.by_ref().take(chunk).collect();
            if c.is_empty() {
                break;
            }
            chunks.push(c);
        }
    }

    let reduce_tasks = config.reduce_tasks;
    let mapper = &mapper;
    let combiner = combiner.as_ref();
    let map_outputs: Vec<Emitter<K, V>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| {
                s.spawn(move || {
                    let mut em = Emitter::new(reduce_tasks);
                    for record in c {
                        mapper(record, &mut em);
                    }
                    // Map-side combine: sort + group + pre-aggregate each
                    // partition locally before anything crosses the shuffle.
                    if let Some(combine) = combiner {
                        for part in &mut em.partitions {
                            let mut input = std::mem::take(part);
                            input.sort_by(|a, b| a.0.cmp(&b.0));
                            let mut it = input.into_iter().peekable();
                            while let Some((key, first)) = it.next() {
                                let mut values = vec![first];
                                while let Some((k, _)) = it.peek() {
                                    if *k == key {
                                        values.push(it.next().expect("peeked").1);
                                    } else {
                                        break;
                                    }
                                }
                                for v in combine(&key, values) {
                                    // Re-emission stays in the same
                                    // partition (same key, same hash).
                                    part.push((key.clone(), v));
                                }
                            }
                        }
                    }
                    em
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("map task panicked"))
            .collect()
    });
    stats.map_wall = map_start.elapsed();

    // ---- Shuffle ---------------------------------------------------------
    let reduce_start = Instant::now();
    let pair_bytes = std::mem::size_of::<(K, V)>() as u64;
    let mut partitions: Vec<Vec<(K, V)>> = (0..reduce_tasks).map(|_| Vec::new()).collect();
    for em in map_outputs {
        stats.map_output_records += em.emitted;
        for (p, mut pairs) in em.partitions.into_iter().enumerate() {
            stats.shuffled_records += pairs.len() as u64;
            partitions[p].append(&mut pairs);
        }
    }
    stats.shuffle_bytes = stats.shuffled_records * pair_bytes;
    stats.reduce_input_records = stats.shuffled_records;

    // ---- Sort + reduce ---------------------------------------------------
    let reducer = &reducer;
    let results: Vec<(Vec<O>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = partitions
            .into_iter()
            .map(|mut part| {
                s.spawn(move || {
                    part.sort_by(|a, b| a.0.cmp(&b.0));
                    let mut out = Vec::new();
                    let mut groups = 0u64;
                    let mut it = part.into_iter().peekable();
                    while let Some((key, first_val)) = it.next() {
                        let mut values = vec![first_val];
                        while let Some((k, _)) = it.peek() {
                            if *k == key {
                                values.push(it.next().expect("peeked").1);
                            } else {
                                break;
                            }
                        }
                        groups += 1;
                        reducer(&key, values, &mut out);
                    }
                    (out, groups)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reduce task panicked"))
            .collect()
    });

    let mut outputs = Vec::new();
    for (mut out, groups) in results {
        stats.reduce_input_groups += groups;
        stats.reduce_output_records += out.len() as u64;
        outputs.append(&mut out);
    }
    stats.reduce_wall = reduce_start.elapsed();
    stats.total_wall = total_start.elapsed();
    (outputs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical word count, exercised at several parallelism levels.
    fn word_count(config: &JobConfig) -> Vec<(String, u64)> {
        let docs = vec![
            "the quick brown fox".to_string(),
            "the lazy dog".to_string(),
            "the quick dog".to_string(),
        ];
        let (mut out, stats) = run_job(
            config,
            docs,
            |doc: String, em: &mut Emitter<String, u64>| {
                for w in doc.split_whitespace() {
                    em.emit(w.to_string(), 1);
                }
            },
            |k: &String, vs: Vec<u64>, out: &mut Vec<(String, u64)>| {
                out.push((k.clone(), vs.iter().sum()));
            },
        );
        assert_eq!(stats.map_input_records, 3);
        assert_eq!(stats.map_output_records, 10);
        assert_eq!(stats.reduce_input_records, 10);
        out.sort();
        out
    }

    #[test]
    fn word_count_is_correct_at_any_parallelism() {
        let expected = vec![
            ("brown".to_string(), 1),
            ("dog".to_string(), 2),
            ("fox".to_string(), 1),
            ("lazy".to_string(), 1),
            ("quick".to_string(), 2),
            ("the".to_string(), 3),
        ];
        assert_eq!(word_count(&JobConfig::sequential()), expected);
        assert_eq!(
            word_count(&JobConfig {
                map_tasks: 4,
                reduce_tasks: 3
            }),
            expected
        );
        assert_eq!(
            word_count(&JobConfig {
                map_tasks: 8,
                reduce_tasks: 1
            }),
            expected
        );
    }

    #[test]
    fn empty_input_runs_cleanly() {
        let (out, stats) = run_job(
            &JobConfig::default(),
            Vec::<u64>::new(),
            |x, em: &mut Emitter<u64, u64>| em.emit(x, x),
            |k, vs, out: &mut Vec<u64>| out.push(*k + vs.len() as u64),
        );
        assert!(out.is_empty());
        assert_eq!(stats.map_input_records, 0);
        assert_eq!(stats.reduce_input_groups, 0);
    }

    #[test]
    fn group_counts_match_distinct_keys() {
        let inputs: Vec<u64> = (0..1000).collect();
        let (_, stats) = run_job(
            &JobConfig {
                map_tasks: 4,
                reduce_tasks: 4,
            },
            inputs,
            |x, em: &mut Emitter<u64, ()>| em.emit(x % 37, ()),
            |_, _, _: &mut Vec<()>| {},
        );
        assert_eq!(stats.reduce_input_groups, 37);
        assert_eq!(stats.map_output_records, 1000);
        assert!(stats.shuffle_bytes > 0);
    }

    #[test]
    fn reducer_sees_all_values_of_a_key() {
        let inputs: Vec<u32> = (0..100).collect();
        let (out, _) = run_job(
            &JobConfig {
                map_tasks: 3,
                reduce_tasks: 2,
            },
            inputs,
            |x, em: &mut Emitter<u32, u32>| em.emit(x % 10, x),
            |k, vs, out: &mut Vec<(u32, u32)>| {
                out.push((*k, vs.len() as u32));
            },
        );
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|&(_, c)| c == 10));
    }

    #[test]
    fn combiner_preserves_results_and_shrinks_shuffle() {
        let inputs: Vec<u64> = (0..10_000).collect();
        let config = JobConfig {
            map_tasks: 4,
            reduce_tasks: 2,
        };
        let mapper = |x: u64, em: &mut Emitter<u64, u64>| em.emit(x % 25, 1);
        let reducer = |k: &u64, vs: Vec<u64>, out: &mut Vec<(u64, u64)>| {
            out.push((*k, vs.iter().sum()));
        };
        let (mut plain, s_plain) = run_job(&config, inputs.clone(), mapper, reducer);
        let (mut combined, s_comb) = run_job_with_combiner(
            &config,
            inputs,
            mapper,
            Some(|_: &u64, vs: Vec<u64>| vec![vs.iter().sum::<u64>()]),
            reducer,
        );
        plain.sort();
        combined.sort();
        assert_eq!(plain, combined, "combiner changed the result");
        // Pre-combine map outputs are identical; shuffled records shrink
        // to ≤ keys × map_tasks.
        assert_eq!(s_plain.map_output_records, s_comb.map_output_records);
        assert_eq!(s_plain.shuffled_records, 10_000);
        assert!(
            s_comb.shuffled_records <= 25 * 4,
            "{}",
            s_comb.shuffled_records
        );
        assert!(s_comb.shuffle_bytes < s_plain.shuffle_bytes);
    }

    #[test]
    fn combiner_that_expands_is_allowed() {
        // A (weird but legal) combiner that re-emits everything.
        let inputs: Vec<u64> = (0..100).collect();
        let (out, stats) = run_job_with_combiner(
            &JobConfig::sequential(),
            inputs,
            |x: u64, em: &mut Emitter<u64, u64>| em.emit(x % 10, x),
            Some(|_: &u64, vs: Vec<u64>| vs),
            |k: &u64, vs: Vec<u64>, out: &mut Vec<(u64, usize)>| out.push((*k, vs.len())),
        );
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|&(_, c)| c == 10));
        assert_eq!(stats.shuffled_records, 100);
    }

    #[test]
    fn stats_time_fields_are_populated() {
        let inputs: Vec<u64> = (0..10_000).collect();
        let (_, stats) = run_job(
            &JobConfig::default(),
            inputs,
            |x, em: &mut Emitter<u64, u64>| em.emit(x % 100, x),
            |_, vs, out: &mut Vec<u64>| out.push(vs.iter().sum()),
        );
        assert!(stats.total_wall >= stats.map_wall);
        assert!(stats.total_wall >= stats.reduce_wall);
    }

    #[test]
    #[should_panic(expected = "map task panicked")]
    fn a_panicking_map_task_fails_the_job() {
        let _ = run_job(
            &JobConfig {
                map_tasks: 4,
                reduce_tasks: 2,
            },
            (0..100u64).collect(),
            |x, em: &mut Emitter<u64, u64>| {
                assert_ne!(x, 57, "bad record");
                em.emit(x, x);
            },
            |k, _, out: &mut Vec<u64>| out.push(*k),
        );
    }

    #[test]
    #[should_panic(expected = "reduce task panicked")]
    fn a_panicking_reduce_task_fails_the_job() {
        let _ = run_job(
            &JobConfig {
                map_tasks: 2,
                reduce_tasks: 4,
            },
            (0..100u64).collect(),
            |x, em: &mut Emitter<u64, u64>| em.emit(x % 10, x),
            |k, _, out: &mut Vec<u64>| {
                assert_ne!(*k, 7, "bad group");
                out.push(*k);
            },
        );
    }
}
