//! Seeded input generation.
//!
//! Every input a workload feeds the program derives from `--seed`
//! through the plans below: which peer sends each gateway request and
//! whether it is forged, how large each RREQ burst is and who is in it,
//! which hops the auth replay signs, and which scenario seeds the sims
//! run. The plans are pure data so the tests can check that one seed
//! always yields the same inputs and another seed yields different ones.

use mccls_rng::rngs::StdRng;
use mccls_rng::{RngCore, SeedableRng};

/// The splitmix64 finaliser: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent seed for stream `stream` of the run seeded `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    mix64(seed ^ mix64(stream))
}

/// A generator for stream `stream` of the run seeded `seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, stream))
}

/// A uniform draw from `[0, 1)`.
pub fn unit(rng: &mut impl RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform draw from `0..n` (`n > 0`; the modulo bias is below
/// 2^-50 for the small `n` used here).
pub fn below(rng: &mut impl RngCore, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

/// Zipf popularity over ranks `0..n`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut impl RngCore) -> usize {
        let u = unit(rng);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// How a generated signature is broken, if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forgery {
    /// An honest signature over the delivered message.
    None,
    /// An honest signature, but the message is altered after signing.
    TamperedMessage,
    /// Signed under a key pair other than the one the verifier holds.
    WrongKey,
    /// Signed with a made-up partial private key (an outsider who never
    /// contacted the KGC).
    OutsiderPartial,
}

impl Forgery {
    /// Whether a correct verifier must accept the item.
    pub fn is_valid(self) -> bool {
        self == Forgery::None
    }

    /// No forgery with probability `1 - frac`, otherwise one of the
    /// three kinds, uniformly.
    fn draw(rng: &mut impl RngCore, frac: f64) -> Self {
        if unit(rng) >= frac {
            return Forgery::None;
        }
        Self::any_kind(rng)
    }

    /// One of the three kinds, uniformly.
    fn any_kind(rng: &mut impl RngCore) -> Self {
        match below(rng, 3) {
            0 => Forgery::TamperedMessage,
            1 => Forgery::WrongKey,
            _ => Forgery::OutsiderPartial,
        }
    }
}

/// One gateway request: a telemetry reading from a sensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpec {
    /// Position in the request stream.
    pub seq: u64,
    /// The sending sensor, by popularity rank.
    pub peer: usize,
    /// The reading it reports.
    pub reading: u32,
    /// Whether and how the request is forged.
    pub forgery: Forgery,
}

/// The gateway's request stream: Zipf-popular sensors, about
/// `invalid_frac` of requests forged.
#[derive(Debug, Clone)]
pub struct GatewayPlan {
    rng: StdRng,
    zipf: Zipf,
    invalid_frac: f64,
    seq: u64,
}

impl GatewayPlan {
    /// The stream for `seed` over a population of `population` sensors.
    pub fn new(seed: u64, population: usize, zipf_s: f64, invalid_frac: f64) -> Self {
        Self {
            rng: rng(seed, 0x6761_7465),
            zipf: Zipf::new(population, zipf_s),
            invalid_frac,
            seq: 0,
        }
    }
}

impl Iterator for GatewayPlan {
    type Item = RequestSpec;

    fn next(&mut self) -> Option<RequestSpec> {
        let peer = self.zipf.sample(&mut self.rng);
        let reading = self.rng.next_u32();
        let forgery = Forgery::draw(&mut self.rng, self.invalid_frac);
        let seq = self.seq;
        self.seq += 1;
        Some(RequestSpec {
            seq,
            peer,
            reading,
            forgery,
        })
    }
}

/// One entry of an RREQ burst: a neighbour's re-broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntrySpec {
    /// The forwarding neighbour.
    pub neighbour: usize,
    /// Whether and how the entry is forged.
    pub forgery: Forgery,
}

/// One RREQ flood as seen by one node: copies from distinct neighbours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstSpec {
    /// Position in the burst stream.
    pub id: u64,
    /// The flood's originator and destination (carried in every copy).
    pub origin: u16,
    /// The sought destination.
    pub dest: u16,
    /// The copies, in arrival order.
    pub entries: Vec<EntrySpec>,
}

/// Size strata a deck of burst sizes is dealt from.
const SIZE_STRATA: usize = 8;

/// The burst stream, members distinct within a burst. It is stratified
/// so every seed gets the same mix of work: sizes are dealt from shuffled
/// decks holding one size from each of [`SIZE_STRATA`] equal slices of
/// `min..=max` (straddling the flush window), and exactly one copy in
/// each block of `round(1 / invalid_frac)` copies is forged, at a random
/// place in the block.
#[derive(Debug, Clone)]
pub struct BurstPlan {
    rng: StdRng,
    neighbours: usize,
    min: usize,
    max: usize,
    deck: Vec<usize>,
    block: usize,
    block_pos: usize,
    forge_at: usize,
    id: u64,
}

impl BurstPlan {
    /// The stream for `seed` over `neighbours` neighbours.
    pub fn new(seed: u64, neighbours: usize, min: usize, max: usize, invalid_frac: f64) -> Self {
        let block = if invalid_frac > 0.0 {
            (1.0 / invalid_frac).round().max(1.0) as usize
        } else {
            usize::MAX
        };
        let mut rng = rng(seed, 0x6275_7273);
        let forge_at = below(&mut rng, block);
        Self {
            rng,
            neighbours,
            min,
            max: max.min(neighbours),
            deck: Vec::new(),
            block,
            block_pos: 0,
            forge_at,
            id: 0,
        }
    }

    /// The next burst size from the deck, dealing a new deck when empty.
    fn next_size(&mut self) -> usize {
        if self.deck.is_empty() {
            let span = self.max - self.min + 1;
            for s in 0..SIZE_STRATA {
                let (lo, hi) = (s * span / SIZE_STRATA, (s + 1) * span / SIZE_STRATA);
                self.deck
                    .push(self.min + lo + below(&mut self.rng, (hi - lo).max(1)));
            }
            for i in (1..self.deck.len()).rev() {
                let j = below(&mut self.rng, i + 1);
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().unwrap_or(self.min)
    }

    /// Whether the next copy is forged, and how.
    fn next_forgery(&mut self) -> Forgery {
        let forged = self.block_pos == self.forge_at;
        self.block_pos += 1;
        if self.block_pos == self.block {
            self.block_pos = 0;
            self.forge_at = below(&mut self.rng, self.block);
        }
        if forged {
            Forgery::any_kind(&mut self.rng)
        } else {
            Forgery::None
        }
    }
}

impl Iterator for BurstPlan {
    type Item = BurstSpec;

    fn next(&mut self) -> Option<BurstSpec> {
        let size = self.next_size();
        // Partial Fisher-Yates: the first `size` slots are a uniform
        // sample of distinct neighbours in a uniform order.
        let mut pool: Vec<usize> = (0..self.neighbours).collect();
        for i in 0..size {
            let j = i + below(&mut self.rng, self.neighbours - i);
            pool.swap(i, j);
        }
        let entries = pool[..size]
            .iter()
            .map(|&neighbour| EntrySpec {
                neighbour,
                forgery: self.next_forgery(),
            })
            .collect();
        let id = self.id;
        self.id += 1;
        Some(BurstSpec {
            id,
            origin: self.rng.next_u32() as u16,
            dest: self.rng.next_u32() as u16,
            entries,
        })
    }
}

/// One re-broadcast RREQ hop for the auth replay of the sims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopSpec {
    /// The node that signs the hop.
    pub forwarder: u16,
    /// Discovery originator.
    pub origin: u16,
    /// Sought destination.
    pub dest: u16,
    /// Flood identifier.
    pub rreq_id: u32,
    /// Hops so far.
    pub hop_count: u8,
    /// Whether the hop count is altered after signing.
    pub tampered: bool,
}

/// The hop stream over `nodes` nodes; about `tamper_frac` of hops are
/// altered in flight.
#[derive(Debug, Clone)]
pub struct HopPlan {
    rng: StdRng,
    nodes: usize,
    tamper_frac: f64,
}

impl HopPlan {
    /// The stream for `seed`.
    pub fn new(seed: u64, nodes: usize, tamper_frac: f64) -> Self {
        Self {
            rng: rng(seed, 0x686f_7073),
            nodes,
            tamper_frac,
        }
    }
}

impl Iterator for HopPlan {
    type Item = HopSpec;

    fn next(&mut self) -> Option<HopSpec> {
        Some(HopSpec {
            forwarder: below(&mut self.rng, self.nodes) as u16,
            origin: below(&mut self.rng, self.nodes) as u16,
            dest: below(&mut self.rng, self.nodes) as u16,
            rreq_id: self.rng.next_u32(),
            hop_count: below(&mut self.rng, 8) as u8,
            tampered: unit(&mut self.rng) < self.tamper_frac,
        })
    }
}

/// The scenario seeds of a sim workload's sub-runs.
pub fn sim_seeds(seed: u64, runs: usize) -> Vec<u64> {
    (0..runs as u64)
        .map(|j| sub_seed(seed, 0x7369_6d00 + j))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a: Vec<_> = GatewayPlan::new(7, 4096, 1.1, 0.02).take(500).collect();
        let b: Vec<_> = GatewayPlan::new(7, 4096, 1.1, 0.02).take(500).collect();
        assert_eq!(a, b);
        let a: Vec<_> = BurstPlan::new(7, 128, 16, 112, 0.01).take(20).collect();
        let b: Vec<_> = BurstPlan::new(7, 128, 16, 112, 0.01).take(20).collect();
        assert_eq!(a, b);
        let a: Vec<_> = HopPlan::new(7, 20, 0.01).take(200).collect();
        let b: Vec<_> = HopPlan::new(7, 20, 0.01).take(200).collect();
        assert_eq!(a, b);
        assert_eq!(sim_seeds(7, 4), sim_seeds(7, 4));
    }

    #[test]
    fn different_seed_different_inputs() {
        let a: Vec<_> = GatewayPlan::new(7, 4096, 1.1, 0.02).take(500).collect();
        let b: Vec<_> = GatewayPlan::new(8, 4096, 1.1, 0.02).take(500).collect();
        assert_ne!(a, b);
        let a: Vec<_> = BurstPlan::new(7, 128, 16, 112, 0.01).take(20).collect();
        let b: Vec<_> = BurstPlan::new(8, 128, 16, 112, 0.01).take(20).collect();
        assert_ne!(a, b);
        let a: Vec<_> = HopPlan::new(7, 20, 0.01).take(200).collect();
        let b: Vec<_> = HopPlan::new(8, 20, 0.01).take(200).collect();
        assert_ne!(a, b);
        assert_ne!(sim_seeds(7, 4), sim_seeds(8, 4));
    }

    #[test]
    fn bursts_straddle_the_window_with_distinct_members() {
        let bursts: Vec<_> = BurstPlan::new(3, 128, 16, 112, 0.01).take(200).collect();
        assert!(bursts.iter().any(|b| b.entries.len() < 64));
        assert!(bursts.iter().any(|b| b.entries.len() > 64));
        for b in &bursts {
            let mut members: Vec<_> = b.entries.iter().map(|e| e.neighbour).collect();
            members.sort_unstable();
            members.dedup();
            assert_eq!(members.len(), b.entries.len(), "burst {} repeats", b.id);
        }
    }

    #[test]
    fn bursts_have_the_same_mix_for_every_seed() {
        for seed in [1, 2, 3] {
            let bursts: Vec<_> = BurstPlan::new(seed, 128, 16, 112, 0.01).take(80).collect();
            // Ten full decks: one size from each eighth of 16..=112.
            let mut sizes: Vec<usize> = bursts.iter().map(|b| b.entries.len()).collect();
            sizes.sort_unstable();
            for (s, chunk) in sizes.chunks(10).enumerate() {
                let (lo, hi) = (16 + s * 97 / 8, 16 + (s + 1) * 97 / 8);
                assert!(
                    chunk.iter().all(|n| (lo..hi).contains(n)),
                    "{seed}: {chunk:?}"
                );
            }
            // Exactly one forged copy in every block of 100.
            let copies: Vec<Forgery> = bursts
                .iter()
                .flat_map(|b| b.entries.iter().map(|e| e.forgery))
                .collect();
            for block in copies.chunks_exact(100) {
                assert_eq!(block.iter().filter(|f| !f.is_valid()).count(), 1);
            }
        }
    }

    #[test]
    fn forgery_rate_and_kinds_follow_the_plan() {
        let reqs: Vec<_> = GatewayPlan::new(11, 4096, 1.1, 0.02).take(20_000).collect();
        let forged = reqs.iter().filter(|r| !r.forgery.is_valid()).count();
        assert!((250..550).contains(&forged), "{forged} forged of 20000");
        for kind in [
            Forgery::TamperedMessage,
            Forgery::WrongKey,
            Forgery::OutsiderPartial,
        ] {
            assert!(reqs.iter().any(|r| r.forgery == kind), "{kind:?} missing");
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(4096, 1.1);
        let mut r = rng(1, 1);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut r)).collect();
        let top = draws.iter().filter(|&&k| k < 64).count();
        assert!(top > 4_000, "top 64 ranks drew {top}");
        assert!(draws.iter().all(|&k| k < 4096));
    }
}
