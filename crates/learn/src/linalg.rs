//! Minimal dense linear algebra.
//!
//! The learners need dot products, scaled accumulation (axpy), and row
//! access over a dense row-major matrix, so that is all we build.
//! Everything is `f64`; feature counts in the reproduction top out at 3072
//! (the CIFAR-like task).
//!
//! Each [`dot`] is a serial chain of adds per lane, so it runs at about one
//! element per FP-add latency. The batched kernels recover throughput by
//! running four independent products in one pass: [`dot4`] computes four
//! dots against one shared slice, [`axpy4`] adds four scaled rows into one
//! accumulator, and [`Matrix::dot_rows`]/[`Matrix::axpy_rows`] apply them
//! over lists of rows.
//!
//! **Bit contract.** The batched kernels return exactly the bits of the
//! scalar ones, so a learner may switch between them without moving any
//! printed curve:
//! - lane order: every dot keeps four lane accumulators over elements
//!   `j ≡ 0..3 (mod 4)`, sums them as `((l0 + l1) + l2) + l3`, then adds
//!   the tail elements in index order;
//! - example order: `axpy4` adds `e0·x0[j]`, then `e1·x1[j]`, and so on,
//!   which is what four `axpy` calls in that order do;
//! - no FMA and no `mul_add`: every product is rounded before its add.
//!
//! IEEE multiplication is commutative, so `dot(w, row)` and `dot(row, w)`
//! give the same bits.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/buffer mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from row slices.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map(|x| x.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (feature dimensionality).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Flat data buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Append a row (must match `cols`, or set it if the matrix is empty).
    pub fn push_row(&mut self, row: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "push_row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// `out[n] = dot(w, self.row(rows[n]))` bit for bit, four rows per
    /// pass.
    pub fn dot_rows(&self, w: &[f64], rows: &[usize], out: &mut [f64]) {
        assert_eq!(rows.len(), out.len(), "dot_rows length mismatch");
        let (quads, tail) = rows.as_chunks::<4>();
        let (out_quads, out_tail) = out.as_chunks_mut::<4>();
        for (q, o) in quads.iter().zip(out_quads) {
            *o = dot4(w, q.map(|r| self.row(r)));
        }
        for (&r, o) in tail.iter().zip(out_tail) {
            *o = dot(w, self.row(r));
        }
    }

    /// `y += alpha · self.row(row)` for each `(alpha, row)` in list order,
    /// four rows per pass. Same bits as one [`axpy`] per term.
    pub fn axpy_rows(&self, terms: &[(f64, usize)], y: &mut [f64]) {
        let (quads, tail) = terms.as_chunks::<4>();
        for q in quads {
            axpy4(q.map(|t| t.0), q.map(|t| self.row(t.1)), y);
        }
        for &(alpha, r) in tail {
            axpy(alpha, self.row(r), y);
        }
    }
}

/// One step of a lane-wise dot: `acc[l] += x[l] * y[l]`.
#[inline(always)]
fn mac4(acc: &mut [f64; 4], x: &[f64; 4], y: &[f64; 4]) {
    acc[0] += x[0] * y[0];
    acc[1] += x[1] * y[1];
    acc[2] += x[2] * y[2];
    acc[3] += x[3] * y[3];
}

/// Fold the four lanes in order, then add the tail products in order.
#[inline(always)]
fn reduce(acc: [f64; 4], x: &[f64], y: &[f64]) -> f64 {
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for (xi, yi) in x.iter().zip(y) {
        s += xi * yi;
    }
    s
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Four lanes: lets LLVM vectorize without fast-math.
    let (qa, ta) = a.as_chunks::<4>();
    let (qb, tb) = b[..a.len()].as_chunks::<4>();
    let mut acc = [0.0f64; 4];
    for (x, y) in qa.iter().zip(qb) {
        mac4(&mut acc, x, y);
    }
    reduce(acc, ta, tb)
}

/// Four dot products against one shared slice: `out[i]` equals
/// `dot(a, b[i])` bit for bit. The four lane sets are independent chains,
/// so one pass over `a` keeps four times as many adds in flight.
#[inline]
pub fn dot4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
    let n = a.len();
    let (qa, ta) = a.as_chunks::<4>();
    let [(q0, t0), (q1, t1), (q2, t2), (q3, t3)] = b.map(|bi| {
        debug_assert_eq!(bi.len(), n);
        bi[..n].as_chunks::<4>()
    });
    let mut acc = [[0.0f64; 4]; 4];
    for ((((x, y0), y1), y2), y3) in qa.iter().zip(q0).zip(q1).zip(q2).zip(q3) {
        mac4(&mut acc[0], x, y0);
        mac4(&mut acc[1], x, y1);
        mac4(&mut acc[2], x, y2);
        mac4(&mut acc[3], x, y3);
    }
    [reduce(acc[0], ta, t0), reduce(acc[1], ta, t1), reduce(acc[2], ta, t2), reduce(acc[3], ta, t3)]
}

/// `y += alpha * x` over equal-length slices.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Four scaled rows into one accumulator in a single pass over `y`:
/// `y[j] += e[0]·x[0][j]`, then `+= e[1]·x[1][j]`, and so on. Same bits as
/// four [`axpy`] calls in that order.
#[inline]
pub fn axpy4(e: [f64; 4], x: [&[f64]; 4], y: &mut [f64]) {
    let n = y.len();
    let [x0, x1, x2, x3] = x.map(|xi| {
        debug_assert_eq!(xi.len(), n);
        &xi[..n]
    });
    for ((((yj, a), b), c), d) in y.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
        let mut v = *yj;
        v += e[0] * a;
        v += e[1] * b;
        v += e[2] * c;
        v += e[3] * d;
        *yj = v;
    }
}

/// `y *= alpha` in place.
#[inline]
pub fn scale(alpha: f64, y: &mut [f64]) {
    for yi in y {
        *yi *= alpha;
    }
}

/// Numerically stable softmax over `logits`, written into `out`.
pub fn softmax_into(logits: &[f64], out: &mut [f64]) {
    debug_assert_eq!(logits.len(), out.len());
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for (o, &l) in out.iter_mut().zip(logits) {
        let e = (l - max).exp();
        *o = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Index of the maximum element (first on ties).
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_shape_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn push_row_grows() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic]
    fn ragged_push_rejected() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0]);
    }

    #[test]
    fn dot_matches_naive_for_odd_lengths() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 13] {
            let a: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() < 1e-10, "n={n}");
        }
    }

    /// Mixed-sign values, mostly of comparable magnitude so that
    /// summation order shows in the rounding, plus `-0.0`, `0.0`,
    /// subnormals and magnitudes from 1e-12 to 1e12.
    fn awkward(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = clamshell_sim::rng::Rng::new(seed);
        (0..n)
            .map(|_| match rng.next_below(8) {
                0 => -0.0,
                1 => 0.0,
                2 => f64::from_bits(1 + rng.next_below(1 << 40)) * (1.0 - 2.0 * rng.next_f64()),
                3 => rng.range_f64(-1.0, 1.0) * 10f64.powi(rng.next_below(25) as i32 - 12),
                _ => rng.range_f64(-1.0, 1.0),
            })
            .collect()
    }

    fn kernel_lengths() -> impl Iterator<Item = usize> {
        (0..=13).chain([784, 3072])
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn dot4_matches_dot_bitwise() {
        for n in kernel_lengths() {
            let a = awkward(n, n as u64);
            let b: Vec<Vec<f64>> = (0..4).map(|i| awkward(n, 100 * n as u64 + i)).collect();
            let got = dot4(&a, [&b[0], &b[1], &b[2], &b[3]]);
            for (i, bi) in b.iter().enumerate() {
                assert_eq!(got[i].to_bits(), dot(&a, bi).to_bits(), "n={n} i={i}");
                // Commuted operands give the same bits.
                assert_eq!(dot(bi, &a).to_bits(), dot(&a, bi).to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn axpy4_matches_four_axpys_bitwise() {
        let scales = [
            [1.5, -2.25, 1e-300, -0.0],
            [0.0, f64::from_bits(3), -f64::from_bits(7), 1e12],
            [-1.0, 1.0, -1.0, 1.0],
        ];
        for n in kernel_lengths() {
            let x: Vec<Vec<f64>> = (0..4).map(|i| awkward(n, 7 * n as u64 + i)).collect();
            for e in scales {
                let y0 = awkward(n, 999 + n as u64);
                let mut want = y0.clone();
                for (ei, xi) in e.iter().zip(&x) {
                    axpy(*ei, xi, &mut want);
                }
                let mut got = y0;
                axpy4(e, [&x[0], &x[1], &x[2], &x[3]], &mut got);
                assert_eq!(bits(&got), bits(&want), "n={n} e={e:?}");
            }
        }
    }

    #[test]
    fn row_kernels_match_scalar_bitwise() {
        let d = 13;
        let m = Matrix::from_vec(6, d, awkward(6 * d, 5));
        let w = awkward(d, 6);
        for len in 0..10 {
            // Repeats and out-of-order rows are allowed.
            let rows: Vec<usize> = (0..len).map(|i| (i * 5) % 6).collect();
            let mut got = vec![f64::NAN; len];
            m.dot_rows(&w, &rows, &mut got);
            let want: Vec<f64> = rows.iter().map(|&r| dot(&w, m.row(r))).collect();
            assert_eq!(bits(&got), bits(&want), "len={len}");

            let alphas = awkward(len, 40 + len as u64);
            let terms: Vec<(f64, usize)> =
                alphas.iter().copied().zip(rows.iter().copied()).collect();
            let mut got = awkward(d, 7);
            let mut want = got.clone();
            m.axpy_rows(&terms, &mut got);
            for &(alpha, r) in &terms {
                axpy(alpha, m.row(r), &mut want);
            }
            assert_eq!(bits(&got), bits(&want), "len={len}");
        }
    }

    #[test]
    fn axpy_and_scale() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 14.0, 16.0]);
        scale(0.5, &mut y);
        assert_eq!(y, [6.0, 7.0, 8.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let logits = [1000.0, 1001.0, 999.0];
        let mut out = [0.0; 3];
        softmax_into(&logits, &mut out);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(out.iter().all(|p| p.is_finite() && *p > 0.0));
        assert!(out[1] > out[0] && out[0] > out[2]);
    }

    #[test]
    fn sigmoid_symmetry_and_extremes() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(sigmoid(800.0) <= 1.0);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }
}
