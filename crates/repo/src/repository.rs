//! The package repository: the universe of packages the concretizer
//! reasons over, with a virtual-provider index.

use crate::package::PackageDef;
use spackle_spec::Sym;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Errors raised by repository construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepoError {
    /// A second package with the same name was added.
    Duplicate(String),
    /// A directive references a package that is neither defined nor
    /// provided as a virtual.
    UnknownPackage {
        /// The package whose directive is at fault.
        package: String,
        /// The missing referent.
        referenced: String,
    },
    /// A package name collides with a virtual name.
    VirtualCollision(String),
    /// A lookup named a virtual provided by several packages, with no way
    /// to pick one. Lists *every* matching provider so callers (the
    /// concretizer's goal resolution and `spackle audit`) can report the
    /// full candidate set.
    AmbiguousVirtual {
        /// The virtual name looked up.
        virtual_name: String,
        /// Every package providing it, in declaration order.
        providers: Vec<String>,
    },
    /// A lookup named something that is neither a package nor a virtual.
    NoSuchPackage(String),
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::Duplicate(n) => write!(f, "duplicate package: {n}"),
            RepoError::UnknownPackage {
                package,
                referenced,
            } => write!(f, "package {package} references unknown package {referenced}"),
            RepoError::VirtualCollision(n) => {
                write!(f, "{n} is both a concrete package and a virtual")
            }
            RepoError::AmbiguousVirtual {
                virtual_name,
                providers,
            } => write!(
                f,
                "virtual {virtual_name} is ambiguous: provided by {}",
                providers.join(", ")
            ),
            RepoError::NoSuchPackage(n) => write!(f, "no such package: {n}"),
        }
    }
}

impl std::error::Error for RepoError {}

/// An immutable collection of package definitions plus derived indexes.
#[derive(Clone, Debug, Default)]
pub struct Repository {
    packages: BTreeMap<Sym, PackageDef>,
    providers: BTreeMap<Sym, Vec<Sym>>, // virtual -> providers
}

impl Repository {
    /// Empty repository.
    pub fn new() -> Repository {
        Repository::default()
    }

    /// Build from a list of package definitions.
    pub fn from_packages(pkgs: impl IntoIterator<Item = PackageDef>) -> Result<Repository, RepoError> {
        let mut repo = Repository::new();
        for p in pkgs {
            repo.add(p)?;
        }
        Ok(repo)
    }

    /// Add one package.
    pub fn add(&mut self, pkg: PackageDef) -> Result<(), RepoError> {
        if self.packages.contains_key(&pkg.name) {
            return Err(RepoError::Duplicate(pkg.name.as_str().to_string()));
        }
        for p in &pkg.provides {
            self.providers
                .entry(p.virtual_name)
                .or_default()
                .push(pkg.name);
        }
        self.packages.insert(pkg.name, pkg);
        Ok(())
    }

    /// Insert `pkg`, replacing any existing definition with the same
    /// name. This is the *delta* primitive for long-lived services: a
    /// new version of one package lands and the resident repository is
    /// cloned, upserted, and republished while content-fingerprinted
    /// caches retain every entry whose segments did not change.
    ///
    /// When the replaced definition's `provides` set is unchanged the
    /// provider index — whose per-virtual ordering is declaration order
    /// and feeds `provider_weight` facts — is left untouched. Otherwise
    /// the package is removed from every provider list and re-appended
    /// for its new virtuals (new provides rank last).
    pub fn upsert(&mut self, pkg: PackageDef) {
        let same_provides = self
            .packages
            .get(&pkg.name)
            .is_some_and(|old| old.provides == pkg.provides);
        if !same_provides {
            for provs in self.providers.values_mut() {
                provs.retain(|p| *p != pkg.name);
            }
            self.providers.retain(|_, provs| !provs.is_empty());
            for p in &pkg.provides {
                self.providers
                    .entry(p.virtual_name)
                    .or_default()
                    .push(pkg.name);
            }
        }
        self.packages.insert(pkg.name, pkg);
    }

    /// Content fingerprint of one package's *segment*: the definition
    /// itself plus its rank in every provider list it appears in (the
    /// rank feeds `provider_weight` facts, so a reordering must change
    /// the fingerprint even when the definition does not). `None` when
    /// the package is not defined. Deterministic within a process build:
    /// hashes the `Debug` rendering of the definition, which spells out
    /// versions, variants, and directives in declaration order.
    pub fn package_fingerprint(&self, name: Sym) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let pkg = self.packages.get(&name)?;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{pkg:?}").hash(&mut h);
        for p in &pkg.provides {
            let rank = self
                .providers_of(p.virtual_name)
                .iter()
                .position(|x| *x == name);
            (p.virtual_name.as_str(), rank).hash(&mut h);
        }
        Some(h.finish())
    }

    /// Look up a package definition.
    pub fn get(&self, name: Sym) -> Option<&PackageDef> {
        self.packages.get(&name)
    }

    /// Resolve `name` to a concrete package definition: a package by that
    /// name, or — when `name` is a virtual — its sole provider. A virtual
    /// with several providers is ambiguous; the error carries the full
    /// provider list so callers report every candidate, not just the
    /// first.
    pub fn lookup(&self, name: Sym) -> Result<&PackageDef, RepoError> {
        if let Some(pkg) = self.packages.get(&name) {
            return Ok(pkg);
        }
        match self.providers.get(&name).map(Vec::as_slice) {
            Some([sole]) => Ok(self
                .packages
                .get(sole)
                .expect("provider index refers to an added package")),
            Some(provs) => Err(RepoError::AmbiguousVirtual {
                virtual_name: name.as_str().to_string(),
                providers: provs.iter().map(|p| p.as_str().to_string()).collect(),
            }),
            None => Err(RepoError::NoSuchPackage(name.as_str().to_string())),
        }
    }

    /// All package definitions, in name order.
    pub fn packages(&self) -> impl Iterator<Item = &PackageDef> {
        self.packages.values()
    }

    /// Number of packages.
    pub fn len(&self) -> usize {
        self.packages.len()
    }

    /// True when the repository holds no packages.
    pub fn is_empty(&self) -> bool {
        self.packages.is_empty()
    }

    /// Is `name` a virtual (provided by someone, not itself a package)?
    pub fn is_virtual(&self, name: Sym) -> bool {
        self.providers.contains_key(&name) && !self.packages.contains_key(&name)
    }

    /// Packages providing virtual `name` (empty if none), in declaration
    /// order.
    pub fn providers_of(&self, name: Sym) -> &[Sym] {
        self.providers.get(&name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Validate cross-package references: every `depends_on` target must
    /// be a defined package or a virtual with at least one provider, and
    /// no name may be both concrete and virtual.
    pub fn validate(&self) -> Result<(), RepoError> {
        for v in self.providers.keys() {
            if self.packages.contains_key(v) {
                return Err(RepoError::VirtualCollision(v.as_str().to_string()));
            }
        }
        for pkg in self.packages.values() {
            for dep in &pkg.depends {
                let name = dep.spec.name.expect("validated at build");
                if !self.packages.contains_key(&name) && !self.providers.contains_key(&name) {
                    return Err(RepoError::UnknownPackage {
                        package: pkg.name.as_str().to_string(),
                        referenced: name.as_str().to_string(),
                    });
                }
            }
            for cs in &pkg.can_splice {
                let name = cs.target.name.expect("validated at build");
                if !self.packages.contains_key(&name) {
                    return Err(RepoError::UnknownPackage {
                        package: pkg.name.as_str().to_string(),
                        referenced: name.as_str().to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The set of packages possibly needed to concretize `roots`:
    /// transitive closure over `depends_on` targets, expanding virtuals
    /// to all of their providers. Used to filter reusable-spec facts so
    /// the solver only sees relevant cache entries.
    pub fn possible_closure(&self, roots: &[Sym]) -> BTreeSet<Sym> {
        let mut seen: BTreeSet<Sym> = BTreeSet::new();
        let mut stack: Vec<Sym> = roots.to_vec();
        while let Some(name) = stack.pop() {
            if !seen.insert(name) {
                continue;
            }
            if let Some(pkg) = self.packages.get(&name) {
                for dep in &pkg.depends {
                    let dname = dep.spec.name.expect("validated");
                    if let Some(provs) = self.providers.get(&dname) {
                        seen.insert(dname);
                        stack.extend(provs.iter().copied());
                    } else {
                        stack.push(dname);
                    }
                }
            }
        }
        seen
    }

    /// All `can_splice` directives in the repository, as
    /// `(replacing package, directive index)` pairs.
    pub fn all_splice_directives(&self) -> Vec<(Sym, usize)> {
        let mut out = Vec::new();
        for pkg in self.packages.values() {
            for i in 0..pkg.can_splice.len() {
                out.push((pkg.name, i));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::PackageBuilder;

    fn mini_repo() -> Repository {
        let zlib = PackageBuilder::new("zlib")
            .version("1.3")
            .version("1.2.11")
            .build()
            .unwrap();
        let mpich = PackageBuilder::new("mpich")
            .version("3.4.3")
            .provides("mpi")
            .build()
            .unwrap();
        let openmpi = PackageBuilder::new("openmpi")
            .version("4.1.5")
            .provides("mpi")
            .build()
            .unwrap();
        let hdf5 = PackageBuilder::new("hdf5")
            .version("1.14.5")
            .variant_bool("mpi", true)
            .depends_on("zlib")
            .depends_on_when("mpi", "+mpi")
            .build()
            .unwrap();
        Repository::from_packages([zlib, mpich, openmpi, hdf5]).unwrap()
    }

    #[test]
    fn lookup_and_len() {
        let r = mini_repo();
        assert_eq!(r.len(), 4);
        assert!(r.get(Sym::intern("hdf5")).is_some());
        assert!(r.get(Sym::intern("nonexistent")).is_none());
    }

    #[test]
    fn virtual_index() {
        let r = mini_repo();
        let mpi = Sym::intern("mpi");
        assert!(r.is_virtual(mpi));
        assert!(!r.is_virtual(Sym::intern("zlib")));
        let provs: Vec<&str> = r.providers_of(mpi).iter().map(|s| s.as_str()).collect();
        assert_eq!(provs, vec!["mpich", "openmpi"]);
    }

    #[test]
    fn lookup_resolves_sole_provider_and_reports_all_ambiguous() {
        let r = mini_repo();
        // Concrete package resolves to itself.
        assert_eq!(
            r.lookup(Sym::intern("zlib")).unwrap().name.as_str(),
            "zlib"
        );
        // An ambiguous virtual reports every provider, in order.
        match r.lookup(Sym::intern("mpi")) {
            Err(RepoError::AmbiguousVirtual {
                virtual_name,
                providers,
            }) => {
                assert_eq!(virtual_name, "mpi");
                assert_eq!(providers, vec!["mpich", "openmpi"]);
            }
            other => panic!("expected AmbiguousVirtual, got {other:?}"),
        }
        // Unknown names are distinct from ambiguity.
        assert!(matches!(
            r.lookup(Sym::intern("ghost")),
            Err(RepoError::NoSuchPackage(_))
        ));
        // A single-provider virtual resolves to that provider.
        let blas = PackageBuilder::new("openblas")
            .version("0.3")
            .provides("blas")
            .build()
            .unwrap();
        let solo = Repository::from_packages([blas]).unwrap();
        assert_eq!(
            solo.lookup(Sym::intern("blas")).unwrap().name.as_str(),
            "openblas"
        );
    }

    #[test]
    fn duplicates_rejected() {
        let mut r = mini_repo();
        let dup = PackageBuilder::new("zlib").version("9.9").build().unwrap();
        assert!(matches!(r.add(dup), Err(RepoError::Duplicate(_))));
    }

    #[test]
    fn validate_catches_unknown_deps() {
        let lonely = PackageBuilder::new("lonely")
            .version("1.0")
            .depends_on("ghost")
            .build()
            .unwrap();
        let r = Repository::from_packages([lonely]).unwrap();
        assert!(matches!(
            r.validate(),
            Err(RepoError::UnknownPackage { .. })
        ));
    }

    #[test]
    fn validate_ok_for_mini_repo() {
        assert!(mini_repo().validate().is_ok());
    }

    #[test]
    fn closure_expands_virtuals() {
        let r = mini_repo();
        let closure = r.possible_closure(&[Sym::intern("hdf5")]);
        let names: Vec<&str> = closure.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["hdf5", "mpi", "mpich", "openmpi", "zlib"]);
    }

    #[test]
    fn closure_is_minimal_for_leaf() {
        let r = mini_repo();
        let closure = r.possible_closure(&[Sym::intern("zlib")]);
        assert_eq!(closure.len(), 1);
    }

    #[test]
    fn virtual_collision_detected() {
        let mpi_pkg = PackageBuilder::new("mpi").version("1.0").build().unwrap();
        let mpich = PackageBuilder::new("mpich")
            .version("3.4.3")
            .provides("mpi")
            .build()
            .unwrap();
        let r = Repository::from_packages([mpi_pkg, mpich]).unwrap();
        assert!(matches!(r.validate(), Err(RepoError::VirtualCollision(_))));
    }

    #[test]
    fn upsert_replaces_and_fingerprints_track_content() {
        let mut r = mini_repo();
        let zlib = Sym::intern("zlib");
        let hdf5 = Sym::intern("hdf5");
        let fp_zlib = r.package_fingerprint(zlib).unwrap();
        let fp_hdf5 = r.package_fingerprint(hdf5).unwrap();

        // Upserting a changed definition replaces it and moves only that
        // package's fingerprint.
        let newer = PackageBuilder::new("zlib")
            .version("1.3")
            .version("1.2.11")
            .version("1.1.0")
            .build()
            .unwrap();
        r.upsert(newer);
        assert_eq!(r.len(), 4);
        assert_ne!(r.package_fingerprint(zlib).unwrap(), fp_zlib);
        assert_eq!(r.package_fingerprint(hdf5).unwrap(), fp_hdf5);
        assert_eq!(r.get(zlib).unwrap().versions.len(), 3);

        // Provider order is preserved when provides are unchanged.
        let provs: Vec<&str> = r
            .providers_of(Sym::intern("mpi"))
            .iter()
            .map(|s| s.as_str())
            .collect();
        assert_eq!(provs, vec!["mpich", "openmpi"]);

        // Re-upserting an identical definition restores the fingerprint.
        let same = PackageBuilder::new("zlib")
            .version("1.3")
            .version("1.2.11")
            .build()
            .unwrap();
        r.upsert(same);
        assert_eq!(r.package_fingerprint(zlib).unwrap(), fp_zlib);
        assert!(r.package_fingerprint(Sym::intern("ghost")).is_none());
    }

    #[test]
    fn upsert_reindexes_providers_when_provides_change() {
        let mut r = mini_repo();
        // mpich stops providing mpi; openmpi becomes the sole provider.
        let mpich = PackageBuilder::new("mpich").version("3.4.3").build().unwrap();
        let fp_openmpi = r.package_fingerprint(Sym::intern("openmpi")).unwrap();
        r.upsert(mpich);
        let provs: Vec<&str> = r
            .providers_of(Sym::intern("mpi"))
            .iter()
            .map(|s| s.as_str())
            .collect();
        assert_eq!(provs, vec!["openmpi"]);
        // openmpi's provider rank changed, so its segment fingerprint
        // must move even though its definition did not.
        assert_ne!(
            r.package_fingerprint(Sym::intern("openmpi")).unwrap(),
            fp_openmpi
        );
    }

    #[test]
    fn splice_directive_enumeration() {
        let mpiabi = PackageBuilder::new("mpiabi")
            .version("1.0")
            .provides("mpi")
            .can_splice("mpich@3.4.3", "")
            .build()
            .unwrap();
        let mpich = PackageBuilder::new("mpich")
            .version("3.4.3")
            .provides("mpi")
            .build()
            .unwrap();
        let r = Repository::from_packages([mpiabi, mpich]).unwrap();
        r.validate().unwrap();
        assert_eq!(r.all_splice_directives().len(), 1);
    }
}
