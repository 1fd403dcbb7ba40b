//! Segmented fact-base fingerprints and delta computation.
//!
//! The encoded fact base decomposes into independently fingerprinted
//! **segments**: one per package in the goal's encode closure (see
//! `encode::goal_scope`) plus one per reusable-spec source partition.
//! A cached [`SolvedGoal`](crate::SolvedGoal) records the
//! [`SegmentSet`] it was solved over; when a package definition changes
//! — a new version lands — the change is expressed as a
//! [`SegmentDelta`] and applied with
//! [`GroundCache::apply_delta`](crate::GroundCache::apply_delta), which
//! drops exactly the entries whose package segments moved and retains
//! the rest. It is the cache's only partial invalidation;
//! [`GroundCache::clear`](crate::GroundCache::clear) drops everything.
//! A refreshed buildcache index needs no delta: its partition
//! fingerprint is part of the key, so the refresh moves every affected
//! key by itself.
//!
//! ## Why content addressing keeps delta solves bit-identical
//!
//! Cache keys are composed from the segment fingerprints themselves, so
//! after a delta:
//!
//! * a goal whose closure avoids every changed segment computes the
//!   *same* key, hits its retained entry, and — the engine being
//!   deterministic — returns a model bit-identical to a cold solve of
//!   the identical program;
//! * a goal touching a changed segment computes a *different* key,
//!   misses, and re-encodes/re-grounds against the new world. Its old
//!   entry is dropped by `apply_delta`, or becomes unreachable — no
//!   current key can ever alias it, because keys are recomputed from
//!   current content. Pure additions, source refreshes and a straggler
//!   that inserts after the sweep leave such unreachable entries.
//!
//! Either way, a delta-updated solve is equal to a cold solve on the
//! post-delta world — the oracle differential suite
//! (`crates/oracle/tests/delta_reconcretize.rs`) enforces exactly this.

use spackle_repo::Repository;
use spackle_spec::Sym;

/// The fingerprinted segments one cached answer depends on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegmentSet {
    /// `(package, fingerprint)` per closure package, sorted by name.
    /// Virtual names carry no definition and therefore no segment; the
    /// provider packages' fingerprints cover them (each fingerprint
    /// includes the provider's rank in the virtual's provider list).
    pub packages: Vec<(Sym, u64)>,
    /// `(source index, fingerprint)` per reusable-spec source partition,
    /// in cache order. These feed the key only; no delta names a source.
    pub sources: Vec<(usize, u64)>,
}

impl SegmentSet {
    /// Total number of segments recorded.
    pub fn len(&self) -> usize {
        self.packages.len() + self.sources.len()
    }

    /// True when no segments are recorded.
    pub fn is_empty(&self) -> bool {
        self.packages.is_empty() && self.sources.is_empty()
    }

    /// Does `delta` move any package segment this set depends on? A hit
    /// is a delta entry for a referenced name whose new fingerprint
    /// differs — `None` (removal) always differs.
    pub fn hit_by(&self, delta: &SegmentDelta) -> bool {
        self.packages.iter().any(|(name, fp)| {
            delta
                .packages
                .iter()
                .any(|(dn, dfp)| dn == name && *dfp != Some(*fp))
        })
    }
}

/// A set of package-segment movements: which packages now have which
/// fingerprints (`None` = removed).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegmentDelta {
    /// Changed packages with their post-delta fingerprint (`None` when
    /// the package was removed). Additions appear with `Some(fp)`; they
    /// invalidate nothing directly (old entries never reference them)
    /// but shift the composed keys of every goal whose closure now
    /// includes them.
    pub packages: Vec<(Sym, Option<u64>)>,
}

impl SegmentDelta {
    /// True when nothing moved.
    pub fn is_empty(&self) -> bool {
        self.packages.is_empty()
    }

    /// Total number of moved segments.
    pub fn len(&self) -> usize {
        self.packages.len()
    }
}

/// Compute the package-segment delta from `old` to `new`: every name
/// whose fingerprint changed, appeared, or disappeared, in name order.
pub fn repo_delta(old: &Repository, new: &Repository) -> SegmentDelta {
    let mut names: std::collections::BTreeSet<Sym> = std::collections::BTreeSet::new();
    names.extend(old.packages().map(|p| p.name));
    names.extend(new.packages().map(|p| p.name));
    let packages = names
        .into_iter()
        .filter_map(|n| {
            let before = old.package_fingerprint(n);
            let after = new.package_fingerprint(n);
            (before != after).then_some((n, after))
        })
        .collect();
    SegmentDelta { packages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spackle_repo::{PackageBuilder, Repository};

    fn two_pkg_repo() -> Repository {
        let zlib = PackageBuilder::new("zlib").version("1.3").build().unwrap();
        let app = PackageBuilder::new("app")
            .version("1.0")
            .depends_on("zlib")
            .build()
            .unwrap();
        Repository::from_packages([zlib, app]).unwrap()
    }

    #[test]
    fn repo_delta_names_exactly_the_moved_segments() {
        let old = two_pkg_repo();
        let mut new = old.clone();
        assert!(repo_delta(&old, &new).is_empty());

        new.upsert(
            PackageBuilder::new("zlib")
                .version("1.4")
                .version("1.3")
                .build()
                .unwrap(),
        );
        let d = repo_delta(&old, &new);
        assert_eq!(d.packages.len(), 1);
        assert_eq!(d.packages[0].0.as_str(), "zlib");
        assert!(d.packages[0].1.is_some());

        // An addition appears with Some(fp); a removal with None.
        new.upsert(PackageBuilder::new("newpkg").version("0.1").build().unwrap());
        let d2 = repo_delta(&old, &new);
        assert!(d2
            .packages
            .iter()
            .any(|(n, fp)| n.as_str() == "newpkg" && fp.is_some()));
        let d3 = repo_delta(&new, &old);
        assert!(d3
            .packages
            .iter()
            .any(|(n, fp)| n.as_str() == "newpkg" && fp.is_none()));
    }

    #[test]
    fn hit_by_matches_only_moved_referenced_segments() {
        let zlib = Sym::intern("zlib");
        let app = Sym::intern("app");
        let set = SegmentSet {
            packages: vec![(app, 1), (zlib, 2)],
            sources: vec![(0, 7)],
        };
        // Unreferenced package: no hit.
        let d = SegmentDelta {
            packages: vec![(Sym::intern("other"), Some(9))],
        };
        assert!(!set.hit_by(&d));
        // Referenced package, same fingerprint: no hit.
        let d = SegmentDelta {
            packages: vec![(zlib, Some(2))],
        };
        assert!(!set.hit_by(&d));
        // Referenced package, moved fingerprint: hit.
        let d = SegmentDelta {
            packages: vec![(zlib, Some(3))],
        };
        assert!(set.hit_by(&d));
        // Removal: hit.
        let d = SegmentDelta {
            packages: vec![(zlib, None)],
        };
        assert!(set.hit_by(&d));
    }
}
