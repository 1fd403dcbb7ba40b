//! Package definitions and the builder DSL mirroring Spack's `package.py`
//! directives (paper §3.2, Fig 1).

use crate::directive::{CanSplice, Conflict, DependsOn, Provides};
use spackle_spec::{
    parse_spec, AbstractSpec, DepTypes, SpecError, Sym, VariantKind, VariantValue, Version,
};
use std::collections::{BTreeMap, BTreeSet};

/// A fully declared package: the configuration space the concretizer
/// explores.
#[derive(Clone, Debug)]
pub struct PackageDef {
    /// Package name.
    pub name: Sym,
    /// Declared versions, sorted newest-first. The index doubles as the
    /// concretizer's version-preference penalty (0 = most preferred).
    pub versions: Vec<Version>,
    /// Declared variants with their kinds and defaults.
    pub variants: BTreeMap<Sym, VariantKind>,
    /// Conditional dependencies.
    pub depends: Vec<DependsOn>,
    /// Conditional conflicts.
    pub conflicts: Vec<Conflict>,
    /// Virtual interfaces this package provides.
    pub provides: Vec<Provides>,
    /// ABI-compatibility (splice) declarations.
    pub can_splice: Vec<CanSplice>,
}

impl PackageDef {
    /// Preference penalty of `v`: its index in the newest-first version
    /// list.
    pub fn version_penalty(&self, v: &Version) -> Option<usize> {
        self.versions.iter().position(|x| x == v)
    }

    /// Does this package (under some condition) provide `virtual_name`?
    pub fn provides_virtual(&self, virtual_name: Sym) -> bool {
        self.provides.iter().any(|p| p.virtual_name == virtual_name)
    }

    /// Names of all packages this one might ever depend on (across all
    /// conditions). Virtual names are returned as-is.
    pub fn possible_dependencies(&self) -> BTreeSet<Sym> {
        self.depends
            .iter()
            .filter_map(|d| d.spec.name)
            .collect()
    }
}

/// Builder for [`PackageDef`] — the Rust face of the packaging DSL.
pub struct PackageBuilder {
    name: Sym,
    versions: Vec<Version>,
    variants: BTreeMap<Sym, VariantKind>,
    depends: Vec<DependsOn>,
    conflicts: Vec<Conflict>,
    provides: Vec<Provides>,
    can_splice: Vec<CanSplice>,
    error: Option<SpecError>,
}

impl PackageBuilder {
    /// Start a package definition.
    pub fn new(name: &str) -> PackageBuilder {
        PackageBuilder {
            name: Sym::intern(name),
            versions: Vec::new(),
            variants: BTreeMap::new(),
            depends: Vec::new(),
            conflicts: Vec::new(),
            provides: Vec::new(),
            can_splice: Vec::new(),
            error: None,
        }
    }

    fn record_err(&mut self, e: SpecError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    fn parse(&mut self, s: &str) -> Option<AbstractSpec> {
        match parse_spec(s) {
            Ok(sp) => Some(sp),
            Err(e) => {
                self.record_err(e);
                None
            }
        }
    }

    /// `version("1.1.0")` — declare an available version. Declaration
    /// order is irrelevant; versions are sorted newest-first at build.
    pub fn version(mut self, v: &str) -> Self {
        match Version::parse(v) {
            Ok(v) => self.versions.push(v),
            Err(e) => self.record_err(e),
        }
        self
    }

    /// `variant("bzip", default=True)` — a boolean variant.
    pub fn variant_bool(mut self, name: &str, default: bool) -> Self {
        self.variants
            .insert(Sym::intern(name), VariantKind::Bool { default });
        self
    }

    /// `variant("api", default="default", values=[...])` — single-valued.
    pub fn variant_single(mut self, name: &str, default: &str, allowed: &[&str]) -> Self {
        self.variants.insert(
            Sym::intern(name),
            VariantKind::Single {
                default: Sym::intern(default),
                allowed: allowed.iter().map(|s| Sym::intern(s)).collect(),
            },
        );
        self
    }

    /// Multi-valued variant with a default subset.
    pub fn variant_multi(mut self, name: &str, default: &[&str], allowed: &[&str]) -> Self {
        self.variants.insert(
            Sym::intern(name),
            VariantKind::Multi {
                default: default.iter().map(|s| Sym::intern(s)).collect(),
                allowed: allowed.iter().map(|s| Sym::intern(s)).collect(),
            },
        );
        self
    }

    /// `depends_on("zlib@1.3")` — unconditional link-run dependency.
    pub fn depends_on(self, spec: &str) -> Self {
        self.depends_on_full(spec, "", DepTypes::LINK_RUN)
    }

    /// `depends_on("zlib@1.2", when="@1.0.0")` — conditional link-run
    /// dependency.
    pub fn depends_on_when(self, spec: &str, when: &str) -> Self {
        self.depends_on_full(spec, when, DepTypes::LINK_RUN)
    }

    /// `depends_on("cmake", type="build")` — unconditional build dep.
    pub fn build_depends_on(self, spec: &str) -> Self {
        self.depends_on_full(spec, "", DepTypes::BUILD)
    }

    /// Fully general dependency directive.
    pub fn depends_on_full(mut self, spec: &str, when: &str, types: DepTypes) -> Self {
        let Some(spec) = self.parse(spec) else {
            return self;
        };
        let when = if when.is_empty() {
            AbstractSpec::anonymous()
        } else {
            match self.parse(when) {
                Some(w) => w,
                None => return self,
            }
        };
        if spec.name.is_none() {
            self.record_err(SpecError::Parse {
                offset: 0,
                message: "depends_on spec must name a package".into(),
            });
            return self;
        }
        self.depends.push(DependsOn { spec, types, when });
        self
    }

    /// `provides("mpi")` — unconditional virtual provider.
    pub fn provides(self, virtual_name: &str) -> Self {
        self.provides_when(virtual_name, "")
    }

    /// `provides("mpi", when="@2:")` — conditional virtual provider.
    pub fn provides_when(mut self, virtual_name: &str, when: &str) -> Self {
        let when = if when.is_empty() {
            AbstractSpec::anonymous()
        } else {
            match self.parse(when) {
                Some(w) => w,
                None => return self,
            }
        };
        self.provides.push(Provides {
            virtual_name: Sym::intern(virtual_name),
            when,
        });
        self
    }

    /// `conflicts("+cuda", when="+rocm")`.
    pub fn conflicts_when(mut self, spec: &str, when: &str) -> Self {
        let Some(spec) = self.parse(spec) else {
            return self;
        };
        let when = if when.is_empty() {
            AbstractSpec::anonymous()
        } else {
            match self.parse(when) {
                Some(w) => w,
                None => return self,
            }
        };
        self.conflicts.push(Conflict {
            spec,
            when,
            msg: None,
        });
        self
    }

    /// `can_splice("mpich@3.4.3", when="@1.0")` — the §5.2 directive:
    /// configurations of *this* package matching `when` may replace
    /// installed specs matching `target`.
    pub fn can_splice(mut self, target: &str, when: &str) -> Self {
        let Some(target) = self.parse(target) else {
            return self;
        };
        if target.name.is_none() {
            self.record_err(SpecError::Parse {
                offset: 0,
                message: "can_splice target must name a package".into(),
            });
            return self;
        }
        let when = if when.is_empty() {
            AbstractSpec::anonymous()
        } else {
            match self.parse(when) {
                Some(w) => w,
                None => return self,
            }
        };
        self.can_splice.push(CanSplice { target, when });
        self
    }

    /// Finalize the definition. Errors accumulated from any directive are
    /// reported here, as are structural problems (no versions, variant
    /// constraints referencing undeclared variants, etc.).
    pub fn build(self) -> Result<PackageDef, SpecError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.versions.is_empty() {
            return Err(SpecError::Parse {
                offset: 0,
                message: format!("package {} declares no versions", self.name),
            });
        }
        let mut versions = self.versions;
        versions.sort_by(|a, b| b.cmp(a)); // newest first
        versions.dedup();

        let def = PackageDef {
            name: self.name,
            versions,
            variants: self.variants,
            depends: self.depends,
            conflicts: self.conflicts,
            provides: self.provides,
            can_splice: self.can_splice,
        };

        // Validate that `when` clauses over this package's own variants
        // reference declared variants with acceptable values.
        let check_when = |when: &AbstractSpec| -> Result<(), SpecError> {
            for (vname, vval) in &when.variants {
                match def.variants.get(vname) {
                    Some(kind) if kind.accepts(vval) => {}
                    Some(_) => {
                        return Err(SpecError::Conflict(format!(
                            "package {}: when-clause value {} not allowed for variant {}",
                            def.name, vval, vname
                        )));
                    }
                    None => {
                        return Err(SpecError::Conflict(format!(
                            "package {}: when-clause references undeclared variant {}",
                            def.name, vname
                        )));
                    }
                }
            }
            Ok(())
        };
        for d in &def.depends {
            check_when(&d.when)?;
        }
        for p in &def.provides {
            check_when(&p.when)?;
        }
        for c in &def.can_splice {
            check_when(&c.when)?;
        }
        Ok(def)
    }
}

/// Evaluate whether a chosen package configuration (version + variants)
/// satisfies an anonymous `when` constraint. Dependencies inside `when`
/// clauses are not supported at the package level (the concretizer
/// handles whole-DAG conditions).
pub fn when_matches(
    when: &AbstractSpec,
    version: &Version,
    variants: &BTreeMap<Sym, VariantValue>,
) -> bool {
    if !when.version.satisfies(version) {
        return false;
    }
    for (name, want) in &when.variants {
        match variants.get(name) {
            Some(have) if have.satisfies(want) => {}
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> PackageDef {
        PackageBuilder::new("example")
            .version("1.1.0")
            .version("1.0.0")
            .variant_bool("bzip", true)
            .depends_on_when("bzip2", "+bzip")
            .depends_on_when("zlib@1.2", "@1.0.0")
            .depends_on_when("zlib@1.3", "@1.1.0")
            .depends_on("mpi")
            .can_splice("example@1.0.0", "@1.1.0")
            .can_splice("example-ng@2.3.2+compat", "@1.1.0+bzip")
            .build()
            .unwrap()
    }

    #[test]
    fn fig1_package_builds() {
        let p = example();
        assert_eq!(p.name.as_str(), "example");
        assert_eq!(p.versions.len(), 2);
        assert_eq!(p.depends.len(), 4);
        assert_eq!(p.can_splice.len(), 2);
    }

    #[test]
    fn versions_sorted_newest_first() {
        let p = PackageBuilder::new("z")
            .version("1.2")
            .version("1.10")
            .version("1.9")
            .build()
            .unwrap();
        let strs: Vec<String> = p.versions.iter().map(|v| v.to_string()).collect();
        assert_eq!(strs, vec!["1.10", "1.9", "1.2"]);
        assert_eq!(p.version_penalty(&Version::parse("1.10").unwrap()), Some(0));
        assert_eq!(p.version_penalty(&Version::parse("1.2").unwrap()), Some(2));
    }

    #[test]
    fn duplicate_versions_dedupe() {
        let p = PackageBuilder::new("z")
            .version("1.0")
            .version("1.0")
            .build()
            .unwrap();
        assert_eq!(p.versions.len(), 1);
    }

    #[test]
    fn no_versions_rejected() {
        assert!(PackageBuilder::new("empty").build().is_err());
    }

    #[test]
    fn bad_spec_reported_at_build() {
        let r = PackageBuilder::new("x")
            .version("1.0")
            .depends_on("zlib@@@")
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn when_referencing_undeclared_variant_rejected() {
        let r = PackageBuilder::new("x")
            .version("1.0")
            .depends_on_when("zlib", "+nonexistent")
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn provides_and_virtual_query() {
        let p = PackageBuilder::new("mpich")
            .version("3.4.3")
            .provides("mpi")
            .build()
            .unwrap();
        assert!(p.provides_virtual(Sym::intern("mpi")));
        assert!(!p.provides_virtual(Sym::intern("blas")));
    }

    #[test]
    fn when_matches_semantics() {
        let p = example();
        let v11 = Version::parse("1.1.0").unwrap();
        let v10 = Version::parse("1.0.0").unwrap();
        let mut vars = BTreeMap::new();
        vars.insert(Sym::intern("bzip"), VariantValue::Bool(true));

        let dep_zlib13 = &p.depends[2]; // zlib@1.3 when @1.1.0
        assert!(when_matches(&dep_zlib13.when, &v11, &vars));
        assert!(!when_matches(&dep_zlib13.when, &v10, &vars));

        let dep_bzip2 = &p.depends[0]; // bzip2 when +bzip
        assert!(when_matches(&dep_bzip2.when, &v11, &vars));
        vars.insert(Sym::intern("bzip"), VariantValue::Bool(false));
        assert!(!when_matches(&dep_bzip2.when, &v11, &vars));
    }

    #[test]
    fn possible_dependencies() {
        let p = example();
        let deps = p.possible_dependencies();
        let names: Vec<&str> = deps.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["bzip2", "mpi", "zlib"]);
    }

    #[test]
    fn single_variant_validation() {
        let p = PackageBuilder::new("mpich")
            .version("3.1")
            .variant_single("pmi", "pmix", &["pmix", "pmi2", "off"])
            .build()
            .unwrap();
        let kind = p.variants.get(&Sym::intern("pmi")).unwrap();
        assert!(kind.accepts(&VariantValue::Single(Sym::intern("pmi2"))));
        assert!(!kind.accepts(&VariantValue::Single(Sym::intern("bogus"))));
    }
}
