pub fn timed(head: f64, n: usize) -> f64 {
    // cbs-audit: allow(D002) reason="fixture: reported statistic only"
    let t0 = std::time::Instant::now();
    // cbs-audit: allow(A001) reason="fixture: setup-time allocation"
    let buf = vec![0.0f64; n];
    head + buf.len() as f64 + t0.elapsed().as_secs_f64()
}
