pub fn columns(slab: &[f64], n: usize) -> usize {
    let cols: Vec<&[f64]> = slab.chunks_exact(n).collect();
    cols.len()
}
