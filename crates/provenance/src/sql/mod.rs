//! The SQL subset engine: lexer → parser → executor.
//!
//! Supports the query shapes the paper's provenance analysis uses (Queries 1
//! and 2, the histogram query of Fig. 5) and a bit more: multi-table FROM
//! with aliases, WHERE with AND/OR and comparison operators, `LIKE`,
//! `IS [NOT] NULL`, arithmetic, `extract('epoch' from …)`, the aggregates
//! `min`/`max`/`sum`/`avg`/`count`, `GROUP BY`, `ORDER BY … [DESC]`,
//! `LIMIT`, and `?` positional parameters bound to typed values via
//! [`crate::ProvenanceStore::query`].

pub mod ast;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod volcano;

pub use exec::{execute_query, QueryError, ResultSet};
pub use parser::{parse, SqlParseError};
pub use plan::{Access, Plan, TableStep};
pub use volcano::{explain_query, run_query};
