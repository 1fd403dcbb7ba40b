#![warn(missing_docs)]

//! # Spackle
//!
//! A Rust reproduction of *Bridging the Gap Between Binary and Source
//! Based Package Management in Spack* (SC 2025): Spack-style dependency
//! resolution with **splicing** — a model of ABI-compatible binary
//! substitution that lets pre-compiled packages be relinked against
//! compatible dependencies instead of rebuilt, with full build
//! provenance.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`spec`] — specs, versions, variants, DAGs, the spec-syntax parser,
//!   DAG hashing, and splice mechanics (paper §3.1, §4).
//! * [`asp`] — a from-scratch Answer Set Programming engine (grounder +
//!   CDCL solver + optimizer), standing in for Clingo (§3.3, §5.1).
//! * [`repo`] — the package directive DSL, including `can_splice`
//!   (§3.2, §5.2).
//! * [`buildcache`] — reusable-spec indexes and synthetic binary
//!   artifacts (§6.1.3).
//! * [`install`] — install layout, binary relocation, and splice
//!   rewiring (§3.4, §4.2).
//! * [`core`] — the concretizer with automatic splicing (§5).
//! * [`audit`] — static analysis over repositories and the generated
//!   logic program, with structured diagnostics.
//! * [`radiuss`] — the synthetic RADIUSS experiment stack (§6.1).
//!
//! ## Quickstart
//!
//! ```
//! use spackle::prelude::*;
//!
//! // A tiny repository: an app over zlib, with an ABI-compatible
//! // drop-in replacement for zlib declared via can_splice.
//! let repo = Repository::from_packages([
//!     PackageBuilder::new("zlib").version("1.3").build().unwrap(),
//!     PackageBuilder::new("zlib-ng")
//!         .version("2.1")
//!         .can_splice("zlib@1.3", "")
//!         .build()
//!         .unwrap(),
//!     PackageBuilder::new("app")
//!         .version("1.0")
//!         .depends_on("zlib")
//!         .build()
//!         .unwrap(),
//! ])
//! .unwrap();
//!
//! // Concretize the app.
//! let sol = Concretizer::new(&repo)
//!     .concretize(&parse_spec("app").unwrap())
//!     .unwrap();
//! assert_eq!(sol.spec().root().name.as_str(), "app");
//! ```

pub mod environment;

pub use spackle_asp as asp;
pub use spackle_audit as audit;
pub use spackle_buildcache as buildcache;
pub use spackle_core as core;
pub use spackle_install as install;
pub use spackle_radiuss as radiuss;
pub use spackle_repo as repo;
pub use spackle_spec as spec;

/// The commonly used types, one `use` away.
pub mod prelude {
    pub use crate::environment::{Environment, Lockfile};
    pub use spackle_audit::AuditReport;
    pub use spackle_buildcache::{
        Artifact, ArtifactError, BuildCache, CacheEntry, CacheError, CacheSource, ChainedCache,
    };
    pub use spackle_core::{
        Concretizer, ConcretizerConfig, CoreError, Encoding, Goal, Solution,
    };
    pub use spackle_install::{InstallError, InstallLayout, InstallPlan, Installer};
    pub use spackle_repo::{PackageBuilder, PackageDef, Repository};
    pub use spackle_spec::{
        parse_spec, AbstractSpec, ConcreteSpec, DepTypes, Os, SpecHash, Sym, Target, Version,
    };
}
