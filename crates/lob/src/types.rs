//! Strongly typed market primitives shared across the workspace.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::time::Duration;

/// A price expressed in integer ticks (the exchange's minimum increment).
///
/// Using integer ticks avoids all floating-point comparison hazards inside
/// the matching engine; conversion to decimal happens only at the protocol
/// boundary. E-mini S&P 500 futures tick in 0.25 index points, so
/// `Price::new(18_000)` represents 4 500.00 points.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Price(i64);

impl Price {
    /// Creates a price from a raw tick count.
    pub const fn new(ticks: i64) -> Self {
        Price(ticks)
    }

    /// Returns the raw tick count.
    pub const fn ticks(self) -> i64 {
        self.0
    }
}

impl fmt::Display for Price {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl Add<i64> for Price {
    type Output = Price;
    fn add(self, rhs: i64) -> Price {
        Price(self.0 + rhs)
    }
}

impl Sub<i64> for Price {
    type Output = Price;
    fn sub(self, rhs: i64) -> Price {
        Price(self.0 - rhs)
    }
}

impl Sub for Price {
    type Output = i64;
    fn sub(self, rhs: Price) -> i64 {
        self.0 - rhs.0
    }
}

/// An order quantity in contracts.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Qty(u64);

impl Qty {
    /// Quantity of zero contracts.
    pub const ZERO: Qty = Qty(0);

    /// Creates a quantity from a raw contract count.
    pub const fn new(contracts: u64) -> Self {
        Qty(contracts)
    }

    /// Returns the raw contract count.
    pub const fn contracts(self) -> u64 {
        self.0
    }

    /// True when the quantity is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the smaller of the two quantities.
    #[must_use]
    pub fn min(self, other: Qty) -> Qty {
        Qty(self.0.min(other.0))
    }

    /// Subtracts `other`, saturating at zero.
    #[must_use]
    pub fn saturating_sub(self, other: Qty) -> Qty {
        Qty(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for Qty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add for Qty {
    type Output = Qty;
    fn add(self, rhs: Qty) -> Qty {
        Qty(self.0 + rhs.0)
    }
}

impl AddAssign for Qty {
    fn add_assign(&mut self, rhs: Qty) {
        self.0 += rhs.0;
    }
}

impl Sub for Qty {
    type Output = Qty;
    fn sub(self, rhs: Qty) -> Qty {
        Qty(self.0 - rhs.0)
    }
}

impl SubAssign for Qty {
    fn sub_assign(&mut self, rhs: Qty) {
        self.0 -= rhs.0;
    }
}

impl std::iter::Sum for Qty {
    fn sum<I: Iterator<Item = Qty>>(iter: I) -> Qty {
        iter.fold(Qty::ZERO, |a, b| a + b)
    }
}

/// Which side of the book an order rests on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Side {
    /// Buy side: resting bids, matched against incoming asks.
    Bid,
    /// Sell side: resting asks, matched against incoming bids.
    Ask,
}

impl Side {
    /// The opposing side.
    #[must_use]
    pub const fn opposite(self) -> Side {
        match self {
            Side::Bid => Side::Ask,
            Side::Ask => Side::Bid,
        }
    }

    /// True if a resting order at `resting` can trade against an incoming
    /// order on the *other* side limited at `incoming`.
    ///
    /// For a resting bid this means `resting >= incoming` (the buyer pays at
    /// least what the seller asks); for a resting ask, `resting <= incoming`.
    pub fn crosses(self, resting: Price, incoming: Price) -> bool {
        match self {
            Side::Bid => resting >= incoming,
            Side::Ask => resting <= incoming,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Bid => f.write_str("bid"),
            Side::Ask => f.write_str("ask"),
        }
    }
}

/// A unique order identifier assigned by the submitting participant.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct OrderId(u64);

impl OrderId {
    /// Creates an identifier from a raw value.
    pub const fn new(raw: u64) -> Self {
        OrderId(raw)
    }

    /// Returns the raw identifier value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for OrderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A nanosecond-resolution event timestamp.
///
/// All simulation and market times in the workspace use this type; it is the
/// tick-to-trade clock of the paper's simulation framework (§IV-A).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The zero timestamp (simulation epoch).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from raw nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        Timestamp(nanos)
    }

    /// Creates a timestamp from microseconds since the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp(micros * 1_000)
    }

    /// Creates a timestamp from milliseconds since the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis * 1_000_000)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    pub fn since(self, earlier: Timestamp) -> Duration {
        debug_assert!(earlier <= self, "time went backwards");
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Saturating difference in nanoseconds.
    pub fn nanos_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.as_nanos() as u64)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos() as u64;
    }
}

/// A security symbol, e.g. `ESU6` for the September 2026 E-mini S&P 500
/// future.
///
/// Stored inline as fixed-width ASCII so it is `Copy` and hashes cheaply on
/// the hot path.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Symbol {
    bytes: [u8; 8],
    len: u8,
}

impl Symbol {
    /// Creates a symbol from an ASCII string.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or longer than eight bytes.
    pub fn new(name: &str) -> Self {
        Self::try_new(name).unwrap_or_else(|| panic!("symbol must be 1..=8 bytes, got {name:?}"))
    }

    /// [`Symbol::new`] for a name that comes off the wire: `None` if it is
    /// empty or longer than eight bytes.
    pub fn try_new(name: &str) -> Option<Self> {
        if name.is_empty() || name.len() > 8 {
            return None;
        }
        let mut bytes = [0u8; 8];
        bytes[..name.len()].copy_from_slice(name.as_bytes());
        Some(Symbol {
            bytes,
            len: name.len() as u8,
        })
    }

    /// The symbol as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).expect("symbols are always ASCII")
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Default for Symbol {
    fn default() -> Self {
        Symbol::new("ES")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_arithmetic_and_display() {
        let p = Price::new(100);
        assert_eq!(p + 5, Price::new(105));
        assert_eq!(p - 5, Price::new(95));
        assert_eq!(Price::new(105) - p, 5);
        assert_eq!(p.to_string(), "100t");
    }

    #[test]
    fn qty_saturating_and_sum() {
        let q = Qty::new(3);
        assert_eq!(q.saturating_sub(Qty::new(5)), Qty::ZERO);
        assert_eq!(q.min(Qty::new(2)), Qty::new(2));
        let total: Qty = [Qty::new(1), Qty::new(2), Qty::new(3)].into_iter().sum();
        assert_eq!(total, Qty::new(6));
        assert!(Qty::ZERO.is_zero());
    }

    #[test]
    fn side_crossing_rules() {
        // Resting bid at 10 matches an incoming ask limited at 10 or lower.
        assert!(Side::Bid.crosses(Price::new(10), Price::new(10)));
        assert!(Side::Bid.crosses(Price::new(10), Price::new(9)));
        assert!(!Side::Bid.crosses(Price::new(10), Price::new(11)));
        // Resting ask at 10 matches an incoming bid limited at 10 or higher.
        assert!(Side::Ask.crosses(Price::new(10), Price::new(10)));
        assert!(Side::Ask.crosses(Price::new(10), Price::new(11)));
        assert!(!Side::Ask.crosses(Price::new(10), Price::new(9)));
        assert_eq!(Side::Bid.opposite(), Side::Ask);
        assert_eq!(Side::Ask.opposite(), Side::Bid);
    }

    #[test]
    fn timestamp_units_and_elapsed() {
        let a = Timestamp::from_micros(5);
        let b = Timestamp::from_nanos(5_500);
        assert_eq!(b.since(a), Duration::from_nanos(500));
        assert_eq!(b.nanos_since(a), 500);
        assert_eq!(a.nanos_since(b), 0, "saturating");
        assert_eq!(Timestamp::from_millis(1).nanos(), 1_000_000);
        let mut c = a;
        c += Duration::from_nanos(10);
        assert_eq!(c, Timestamp::from_nanos(5_010));
    }

    #[test]
    fn symbol_round_trip() {
        let s = Symbol::new("ESU6");
        assert_eq!(s.as_str(), "ESU6");
        assert_eq!(s.to_string(), "ESU6");
        assert_eq!(format!("{s:?}"), "Symbol(ESU6)");
        assert_eq!(s, Symbol::new("ESU6"));
        assert_ne!(s, Symbol::new("NQU6"));
    }

    #[test]
    #[should_panic(expected = "symbol must be 1..=8 bytes")]
    fn symbol_too_long_panics() {
        let _ = Symbol::new("TOOLONGNAME");
    }

    #[test]
    fn symbol_length_extremes_round_trip() {
        // 1-byte and full 8-byte names: the inline buffer's edge cases.
        let one = Symbol::new("A");
        assert_eq!(one.as_str(), "A");
        assert_eq!(one, Symbol::new("A"));
        let eight = Symbol::new("ABCDEFGH");
        assert_eq!(eight.as_str(), "ABCDEFGH");
        assert_ne!(one, eight);
        // A shorter name is never equal to a longer one sharing its
        // prefix (the zero padding must not alias with real bytes).
        assert_ne!(Symbol::new("ES"), Symbol::new("ESU6"));
        assert_ne!(Symbol::new("ES\0\0").as_str(), Symbol::new("ES").as_str());
    }

    #[test]
    fn symbol_ordering_matches_str_ordering() {
        // Ord derives over (bytes, len); with zero padding that must
        // coincide with lexicographic string order, prefixes first.
        let mut names = vec!["ZB", "ESU6", "A", "ABCDEFGH", "ES", "NQU6", "ESU5"];
        let mut symbols: Vec<Symbol> = names.iter().map(|n| Symbol::new(n)).collect();
        names.sort_unstable();
        symbols.sort_unstable();
        let sorted: Vec<&str> = symbols.iter().map(|s| s.as_str()).collect();
        assert_eq!(sorted, names);
    }

    #[test]
    fn symbol_maps_are_deterministic_under_id_hash() {
        use crate::hash::IdHashBuilder;
        use std::collections::HashMap;
        let names = ["A", "ES", "ESU6", "NQU6", "ABCDEFGH", "ZB", "S00", "S07"];
        let build = || {
            let mut map: HashMap<Symbol, usize, IdHashBuilder> = HashMap::default();
            for (i, n) in names.iter().enumerate() {
                map.insert(Symbol::new(n), i);
            }
            map
        };
        let a = build();
        let b = build();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(a.get(&Symbol::new(n)), Some(&i));
        }
        // The stateless hasher makes iteration order itself reproducible
        // across independently built maps — the property per-symbol
        // book-keeping relies on for run-to-run determinism.
        let order_a: Vec<Symbol> = a.keys().copied().collect();
        let order_b: Vec<Symbol> = b.keys().copied().collect();
        assert_eq!(order_a, order_b);
        // Distinct names never collide outright in the finished hash.
        use std::hash::BuildHasher;
        let hashes: std::collections::HashSet<u64> = names
            .iter()
            .map(|n| IdHashBuilder.hash_one(Symbol::new(n)))
            .collect();
        assert_eq!(hashes.len(), names.len());
    }
}
