//! Declared counter sets: each counter is written down once, as one row of
//! a [`counter_set!`](crate::counter_set) declaration, and every exporter
//! is generated from that table.
//!
//! A row names a `pub` field, its type, and optionally the Prometheus
//! series it exports as:
//!
//! ```
//! secbranch_obs::counter_set! {
//!     /// Work a cache did.
//!     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
//!     pub struct CacheStats {
//!         /// Lookups served from memory.
//!         hits: u64 => counter "cache_hits_total",
//!         /// Entries currently held.
//!         entries: u64 => gauge "cache_entries",
//!         /// Lookups that found nothing (JSON only: no series).
//!         misses: u64,
//!     }
//! }
//!
//! let stats = CacheStats { hits: 3, entries: 2, misses: 1 };
//! assert_eq!(stats.to_json(), "{\"hits\":3,\"entries\":2,\"misses\":1}");
//! let mut registry = secbranch_obs::Registry::new();
//! registry.register(&stats);
//! assert!(registry.render_prometheus().contains("cache_hits_total 3\n"));
//! ```
//!
//! From the table come `to_json` (the field name is the key),
//! [`Registry::register`], by-name wire codecs (over [`CounterSet::visit`]
//! and [`CounterSet::visit_mut`]) and [`accumulate`], which adds one set
//! into another by key. Adding a counter is one row.

use std::fmt::Write as _;

use crate::metrics::Registry;

/// How a row is exposed to Prometheus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonic total (`# TYPE name counter`).
    Counter,
    /// A point-in-time level (`# TYPE name gauge`).
    Gauge,
}

/// One row of a declared counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The field name: the JSON key and the name on the wire.
    pub key: &'static str,
    /// The Prometheus series name and type; `None` for fields no
    /// exposition carries.
    pub metric: Option<(&'static str, Kind)>,
}

/// A field type a counter set may hold: scalar counters (`u64`, `u32`,
/// `usize`), sample lists (`Vec<u64>`) and optional nested sets.
pub trait Field {
    /// Appends the field's JSON value to `out`.
    fn write_json(&self, out: &mut String);

    /// The field as one counter value; `None` for structured fields.
    fn scalar(&self) -> Option<u64> {
        None
    }

    /// Overwrites a scalar field. `false` when the field is structured or
    /// cannot hold `value`.
    fn set_scalar(&mut self, _value: u64) -> bool {
        false
    }

    /// Registers the field under `metric` (scalars) or registers its own
    /// rows (nested sets).
    fn register(&self, metric: Option<(&'static str, Kind)>, registry: &mut Registry) {
        if let (Some((name, kind)), Some(value)) = (metric, self.scalar()) {
            match kind {
                Kind::Counter => registry.counter(name, value),
                Kind::Gauge => registry.gauge(name, value),
            }
        }
    }
}

/// Scalar counters: `u64`, plus the `u32`/`usize` fields some sets keep;
/// a value a narrow field cannot hold is refused.
macro_rules! scalar_field {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn scalar(&self) -> Option<u64> {
                Some(*self as u64)
            }

            fn set_scalar(&mut self, value: u64) -> bool {
                <$ty>::try_from(value).map(|v| *self = v).is_ok()
            }
        }
    )*};
}

scalar_field!(u64, u32, usize);

impl Field for Vec<u64> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, value) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{value}");
        }
        out.push(']');
    }
}

impl<T: CounterSet> Field for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(set) => write_json(set, out),
            None => out.push_str("null"),
        }
    }

    fn register(&self, _: Option<(&'static str, Kind)>, registry: &mut Registry) {
        if let Some(set) = self {
            registry.register(set);
        }
    }
}

/// A struct declared with [`counter_set!`](crate::counter_set): its fields
/// can be walked in table order.
pub trait CounterSet {
    /// Calls `f` with every row and its field, in declaration order.
    fn visit(&self, f: &mut dyn FnMut(&Row, &dyn Field));

    /// Calls `f` with every row and its field, mutably, in declaration
    /// order.
    fn visit_mut(&mut self, f: &mut dyn FnMut(&Row, &mut dyn Field));
}

/// Appends `set` as a JSON object, one key per row in declaration order.
pub fn write_json<T: CounterSet + ?Sized>(set: &T, out: &mut String) {
    out.push('{');
    let mut first = true;
    set.visit(&mut |row, field| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(row.key);
        out.push_str("\":");
        field.write_json(out);
    });
    out.push('}');
}

/// Adds every scalar counter of `from` into the scalar counter of `into`
/// with the same key; rows `into` does not declare are dropped. This is how
/// per-shard, per-cell and per-run counters fold into each other without
/// naming a field.
pub fn accumulate<T: CounterSet + ?Sized, U: CounterSet + ?Sized>(into: &mut T, from: &U) {
    let mut values = Vec::new();
    from.visit(&mut |row, field| {
        if let Some(value) = field.scalar() {
            values.push((row.key, value));
        }
    });
    into.visit_mut(&mut |row, field| {
        let added = values.iter().find(|(key, _)| *key == row.key);
        if let (Some(&(_, value)), Some(current)) = (added, field.scalar()) {
            field.set_scalar(current + value);
        }
    });
}

/// Declares a counter set: a struct whose `pub` fields each take one row
/// `name: Type` or `name: Type => counter|gauge "series_name"`, plus its
/// [`CounterSet`] impl and an inherent `to_json`. See the
/// [module docs](crate::counters) for an example.
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_attr:meta])*
                $field:ident : $ty:ty $(=> $kind:ident $metric:literal)?
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $( $(#[$field_attr])* pub $field: $ty, )*
        }

        impl $crate::counters::CounterSet for $name {
            fn visit(
                &self,
                f: &mut dyn FnMut(&$crate::counters::Row, &dyn $crate::counters::Field),
            ) {
                $( f(&$crate::counter_set!(@row $field $($kind $metric)?), &self.$field); )*
            }

            fn visit_mut(
                &mut self,
                f: &mut dyn FnMut(&$crate::counters::Row, &mut dyn $crate::counters::Field),
            ) {
                $( f(&$crate::counter_set!(@row $field $($kind $metric)?), &mut self.$field); )*
            }
        }

        impl $name {
            /// Serialises the set as a JSON object, one key per field in
            /// declaration order (hand-rolled: the offline build has no
            /// serde).
            #[must_use]
            // One signature for `Copy` and non-`Copy` sets alike.
            #[allow(clippy::wrong_self_convention)]
            pub fn to_json(&self) -> String {
                let mut out = String::new();
                $crate::counters::write_json(self, &mut out);
                out
            }
        }
    };
    (@row $field:ident $($kind:ident $metric:literal)?) => {
        $crate::counters::Row {
            key: stringify!($field),
            metric: $crate::counter_set!(@metric $($kind $metric)?),
        }
    };
    (@metric) => { None };
    (@metric counter $metric:literal) => { Some(($metric, $crate::counters::Kind::Counter)) };
    (@metric gauge $metric:literal) => { Some(($metric, $crate::counters::Kind::Gauge)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counter_set! {
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        struct Inner {
            writes: u64 => counter "test_inner_writes_total",
        }
    }

    crate::counter_set! {
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        struct Outer {
            workers: usize => gauge "test_workers",
            hits: u64 => counter "test_hits_total",
            samples: Vec<u64>,
            version: u32,
            inner: Option<Inner>,
        }
    }

    #[test]
    fn every_exporter_follows_the_table() {
        let mut outer = Outer {
            workers: 2,
            hits: 7,
            samples: vec![1, 20],
            version: 4,
            inner: Some(Inner { writes: 5 }),
        };
        assert_eq!(
            outer.to_json(),
            "{\"workers\":2,\"hits\":7,\"samples\":[1,20],\"version\":4,\"inner\":{\"writes\":5}}"
        );
        assert_eq!(Inner::default().to_json(), "{\"writes\":0}");
        let mut registry = Registry::new();
        registry.register(&outer);
        assert_eq!(
            registry.render_prometheus(),
            "# TYPE test_hits_total counter\ntest_hits_total 7\n\
             # TYPE test_inner_writes_total counter\ntest_inner_writes_total 5\n\
             # TYPE test_workers gauge\ntest_workers 2\n"
        );

        // Accumulation adds by key: `writes` has no row in `Outer`.
        accumulate(&mut outer, &Inner { writes: 9 });
        let copy = outer.clone();
        accumulate(&mut outer, &copy);
        assert_eq!((outer.hits, outer.version, outer.workers), (14, 8, 4));
        assert_eq!(outer.samples, [1, 20], "lists are not counters");
        assert!(!outer.version.set_scalar(u64::from(u32::MAX) + 1));
    }
}
