//! What the benchmark runs: the five execution configurations of the
//! paper's experiment, the two generated datasets with their statement
//! catalogs, and the row-set digest every response is checked against.

use sgq_common::{Approach, Backend, Result, Rng};
use sgq_datasets::{ldbc, yago, CatalogQuery};
use sgq_graph::{GraphDatabase, GraphSchema};

/// One execution configuration: backend × approach × degree of
/// parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Metric-name suffix (`catalog_geomean_ms.<name>`).
    pub name: &'static str,
    /// Executing backend.
    pub backend: Backend,
    /// Baseline or schema-rewritten statement.
    pub approach: Approach,
    /// Intra-query degree of parallelism.
    pub dop: usize,
}

/// {graph, relational} × {baseline, schema}, plus relational schema at
/// DOP 2. The first entry is the reference configuration whose rows
/// every other response must match.
pub const CONFIGS: [Config; 5] = [
    Config {
        name: "graph.baseline",
        backend: Backend::Graph,
        approach: Approach::Baseline,
        dop: 1,
    },
    Config {
        name: "graph.schema",
        backend: Backend::Graph,
        approach: Approach::Schema,
        dop: 1,
    },
    Config {
        name: "rel.baseline",
        backend: Backend::Relational,
        approach: Approach::Baseline,
        dop: 1,
    },
    Config {
        name: "rel.schema",
        backend: Backend::Relational,
        approach: Approach::Schema,
        dop: 1,
    },
    Config {
        name: "rel.schema.dop2",
        backend: Backend::Relational,
        approach: Approach::Schema,
        dop: 2,
    },
];

/// Index of the reference configuration (graph backend, baseline).
pub const REFERENCE: usize = 0;

/// A generated dataset and the scale it is generated at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dataset {
    /// LDBC-SNB-like graph at a scale factor; the 30 Tab. 4 statements.
    Ldbc {
        /// LDBC scale factor.
        sf: f64,
    },
    /// YAGO-like graph at a scale of the default size; the 18 statements.
    Yago {
        /// Entity-count multiplier.
        scale: f64,
    },
}

/// A generated dataset with its statement catalog.
pub struct Generated {
    /// The schema the statements are written against.
    pub schema: GraphSchema,
    /// The conforming database.
    pub db: GraphDatabase,
    /// The statement catalog.
    pub queries: Vec<CatalogQuery>,
}

impl Dataset {
    /// Generates the dataset for the workload seed `seed`: the same seed
    /// gives the same graph, and each dataset draws its own generator
    /// seed from it.
    pub fn generate(self, seed: u64) -> Result<Generated> {
        let (schema, db) = match self {
            Dataset::Ldbc { sf } => {
                let mut config = ldbc::LdbcConfig::at_scale(sf);
                config.seed = derive_seed(seed, 1);
                ldbc::generate(config)
            }
            Dataset::Yago { scale } => {
                let mut config = yago::YagoConfig::scaled(scale);
                config.seed = derive_seed(seed, 2);
                yago::generate(config)
            }
        };
        let queries = match self {
            Dataset::Ldbc { .. } => ldbc::queries(&schema)?,
            Dataset::Yago { .. } => yago::queries(&schema)?,
        };
        Ok(Generated {
            schema,
            db,
            queries,
        })
    }
}

/// A seed for stream `stream` of the workload seed `seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).gen_u64()
}

/// An order-independent digest of a row set: equal row sets digest
/// equally whatever order the backend returns them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    rows: usize,
    sum: u64,
    xor: u64,
}

impl Digest {
    /// Digests `rows`.
    pub fn of<R: AsRef<[u32]>>(rows: impl IntoIterator<Item = R>) -> Digest {
        let mut d = Digest {
            rows: 0,
            sum: 0,
            xor: 0,
        };
        for row in rows {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &v in row.as_ref() {
                h = mix(h ^ u64::from(v));
            }
            d.rows += 1;
            d.sum = d.sum.wrapping_add(h);
            d.xor ^= mix(h ^ 0x5851_f42d_4c95_7f2d);
        }
        d
    }

    /// Number of rows digested.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// SplitMix64's finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = Digest::of([[1u32, 2], [3, 4]]);
        let b = Digest::of([[3u32, 4], [1, 2]]);
        let c = Digest::of([[1u32, 2], [4, 3]]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.rows(), 2);
    }

    #[test]
    fn same_seed_same_data() {
        let d = Dataset::Yago { scale: 0.05 };
        let a = d.generate(7).unwrap();
        let b = d.generate(7).unwrap();
        assert_eq!(a.db.edge_count(), b.db.edge_count());
        assert_eq!(a.queries.len(), 18);
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
    }
}
