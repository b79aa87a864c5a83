//! The numbers the benchmark derives itself.

use perfbench::stats::{
    diff_quantile, parse_stat_ticks, parse_vm_hwm_mib, quartiles, Cdf, SliceStat,
};
use streamshed_engine::histo::bucket_index;
use streamshed_engine::Histo;

/// A deterministic, widely spread sample stream.
fn samples(seed: u64, n: usize, scale: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| perfbench::mix(seed, i) % scale + i % 97)
        .collect()
}

#[test]
fn difference_quantile_agrees_with_a_histogram_of_the_slice_alone() {
    for (seed, scale) in [(1, 1_000), (2, 5_000_000), (3, 900_000_000)] {
        let before = samples(seed, 5_000, scale * 3);
        let slice = samples(seed + 100, 3_000, scale);
        let mut running = Histo::new();
        before.iter().for_each(|&v| running.record(v));
        let earlier = Cdf::of(&running);
        slice.iter().for_each(|&v| running.record(v));
        let later = Cdf::of(&running);
        let mut alone = Histo::new();
        slice.iter().for_each(|&v| alone.record(v));

        assert_eq!(later.count() - earlier.count(), slice.len() as u64);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let got = diff_quantile(&earlier, &later, q).expect("slice is not empty");
            let want = alone.quantile(q);
            let (g, w) = (bucket_index(got), bucket_index(want));
            assert!(
                g.abs_diff(w) <= 1,
                "q={q} scale={scale}: {got} (bucket {g}) vs {want} (bucket {w})"
            );
        }
    }
}

#[test]
fn difference_of_equal_reads_is_empty() {
    let mut h = Histo::new();
    h.record(42);
    let cdf = Cdf::of(&h);
    assert_eq!(diff_quantile(&cdf, &cdf, 0.5), None);
    assert_eq!(diff_quantile(&Cdf::default(), &Cdf::default(), 0.5), None);
    // From nothing to something: the whole histogram is the slice.
    assert_eq!(diff_quantile(&Cdf::default(), &cdf, 0.5), Some(42));
}

#[test]
fn merged_reads_add_bucket_wise() {
    let (mut a, mut b, mut both) = (Histo::new(), Histo::new(), Histo::new());
    for v in samples(7, 2_000, 10_000) {
        a.record(v);
        both.record(v);
    }
    for v in samples(8, 1_000, 90_000_000) {
        b.record(v);
        both.record(v);
    }
    let merged = Cdf::of(&a).merged(&Cdf::of(&b));
    assert_eq!(merged.count(), 3_000);
    assert_eq!(merged.sum, both.sum());
    for q in [0.25, 0.5, 0.9] {
        assert_eq!(
            diff_quantile(&Cdf::default(), &merged, q),
            diff_quantile(&Cdf::default(), &Cdf::of(&both), q)
        );
    }
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    // Order does not matter.
    let mut shuffled = v.clone();
    shuffled.reverse();
    shuffled.swap(2, 7);
    assert_eq!(quartiles(&shuffled), (2.75, 5.5, 8.25));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    // statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
    assert_eq!(
        quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]),
        (1.0, 3.0, 5.0)
    );
    assert_eq!(quartiles(&[6.5]), (6.5, 6.5, 6.5));
}

#[test]
fn slice_stat_reports_the_median_slice_and_its_sample_count() {
    let s = SliceStat::from_slices(&[(10.0, 100), (30.0, 300), (20.0, 200), (1000.0, 50)]);
    // One wild slice moves a quartile, not the reported value.
    assert_eq!(s.median, 25.0);
    assert_eq!(s.slices, 4);
    assert_eq!(s.samples, 150);
    assert!(s.q1 <= s.median && s.median <= s.q3);
}

#[test]
fn proc_stat_parser_survives_hostile_command_names() {
    let tail = "S 1 2 3 4 5 6 7 8 9 10 1234 567 0 0 20 0 4 0 100 0 0";
    assert_eq!(
        parse_stat_ticks(&format!("4242 (perfbench) {tail}")),
        Some(1801)
    );
    assert_eq!(
        parse_stat_ticks(&format!("4242 (a b) c (d) {tail}")),
        Some(1801)
    );
    assert_eq!(parse_stat_ticks("4242 (short) S 1 2"), None);
    assert_eq!(parse_stat_ticks("no parenthesis at all"), None);
}

#[test]
fn vm_hwm_parser_reads_kib_as_mib() {
    let status = "Name:\tperfbench\nVmPeak:\t  999999 kB\nVmHWM:\t   58368 kB\nVmRSS:\t 1 kB\n";
    assert_eq!(parse_vm_hwm_mib(status), Some(57.0));
    assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
}
