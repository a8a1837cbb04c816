//! Seeded input generation: every op sequence, file tree and file body
//! the benchmark feeds the program is a pure function of the seed.

/// splitmix64: a tiny, well-mixed, seedable stream (the same
/// generator the repository's own benches use).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `lane`.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1.0) weights over `n` ranks, normalised to sum to 1.
pub fn zipf_weights(n: usize) -> Vec<f64> {
    let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    (1..=n).map(|k| 1.0 / (k as f64 * h)).collect()
}

/// Cumulative Zipf(1.0) distribution for random rank draws.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf(1.0) over ranks `0..n`.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = zipf_weights(n)
            .into_iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    /// One rank draw.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }
}

/// A deck whose cards appear in exact proportion and are dealt in a
/// seeded order, reshuffled each round: the mix is identical on every
/// seed and only the order varies, so run-to-run spread comes from the
/// system rather than from sampling the mix.
#[derive(Debug, Clone)]
pub struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    /// `counts[i]` cards of kind `i`.
    pub fn new(counts: &[usize]) -> Deck {
        let cards: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(kind, &n)| std::iter::repeat_n(kind, n))
            .collect();
        assert!(!cards.is_empty(), "a deck needs cards");
        let next = cards.len();
        Deck { cards, next }
    }

    /// Deals the next card, reshuffling when the round is spent.
    pub fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Smooth weighted round-robin: kinds recur in proportion to integer
/// weights, each spread evenly over the sequence, so any stretch of it
/// holds every kind within a card or two of its share. The seed picks
/// where in the cycle the sequence starts.
#[derive(Debug, Clone)]
pub struct Interleave {
    weights: Vec<i64>,
    current: Vec<i64>,
    total: i64,
}

impl Interleave {
    /// An interleave of `weights`, started at a seeded point of its
    /// cycle.
    pub fn new(weights: &[usize], rng: &mut Rng) -> Interleave {
        let weights: Vec<i64> = weights.iter().map(|&w| w as i64).collect();
        let total = weights.iter().sum();
        assert!(total > 0, "an interleave needs weight");
        let mut out = Interleave {
            current: vec![0; weights.len()],
            weights,
            total,
        };
        for _ in 0..rng.below(total as usize) {
            out.next_kind();
        }
        out
    }

    /// The next kind.
    pub fn next_kind(&mut self) -> usize {
        for (c, w) in self.current.iter_mut().zip(&self.weights) {
            *c += w;
        }
        let best = (0..self.current.len())
            .max_by_key(|&i| (self.current[i], std::cmp::Reverse(i)))
            .expect("non-empty");
        self.current[best] -= self.total;
        best
    }
}

/// Card counts for a `size`-card deck in proportion to `weights`
/// (largest-remainder rounding, so the counts sum to exactly `size`).
pub fn proportional_counts(weights: &[f64], size: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * size as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = exact[a] - exact[a].floor();
        let rb = exact[b] - exact[b].floor();
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = size - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// Deterministic file contents: `len` bytes for (`key`, `version`).
pub fn body(seed: u64, key: u64, version: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ key.rotate_left(17), version.wrapping_add(1));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_counts_sum_exactly() {
        let c = proportional_counts(&zipf_weights(16), 200);
        assert_eq!(c.iter().sum::<usize>(), 200);
        assert!(c.windows(2).all(|w| w[0] >= w[1]), "Zipf counts descend");
    }

    #[test]
    fn deck_deals_each_round_in_exact_proportion() {
        let mut deck = Deck::new(&[3, 1, 2]);
        let mut rng = Rng::new(7, 0);
        for _ in 0..4 {
            let mut seen = [0; 3];
            for _ in 0..6 {
                seen[deck.deal(&mut rng)] += 1;
            }
            assert_eq!(seen, [3, 1, 2]);
        }
    }

    #[test]
    fn interleave_keeps_every_stretch_near_its_share() {
        let weights = proportional_counts(&zipf_weights(16), 200);
        let mut il = Interleave::new(&weights, &mut Rng::new(3, 4));
        let seq: Vec<usize> = (0..400).map(|_| il.next_kind()).collect();
        for window in seq.windows(50).step_by(7) {
            let zeros = window.iter().filter(|&&k| k == 0).count() as f64;
            assert!((zeros - 50.0 * weights[0] as f64 / 200.0).abs() <= 2.0);
        }
        let full: usize = seq[..200].iter().filter(|&&k| k == 15).count();
        assert_eq!(full, weights[15]);
    }

    #[test]
    fn zipf_draws_favour_low_ranks() {
        let z = Zipf::new(64);
        let mut rng = Rng::new(1, 2);
        let mut hist = [0usize; 64];
        for _ in 0..20_000 {
            hist[z.draw(&mut rng)] += 1;
        }
        assert!(hist[0] > hist[1] && hist[1] > hist[7] && hist[7] > hist[63]);
    }
}
