//! Schemas of tables, and the errors of table and catalog operations.

use std::fmt;

use crate::value::ValueType;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ValueType,
}

/// A table schema: ordered, uniquely named columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Columns in declaration order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names (a schema-definition bug).
    pub fn new(cols: &[(&str, ValueType)]) -> Schema {
        let mut seen = std::collections::HashSet::new();
        for (n, _) in cols {
            assert!(seen.insert(n.to_ascii_lowercase()), "duplicate column {n}");
        }
        Schema {
            columns: cols.iter().map(|(n, t)| Column { name: n.to_string(), ty: *t }).collect(),
        }
    }

    /// Index of a column by case-insensitive name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

/// Errors raised by table mutation or catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Row arity doesn't match schema.
    ArityMismatch {
        /// Columns in the schema.
        expected: usize,
        /// Values in the rejected row.
        got: usize,
    },
    /// A value's type doesn't match its column.
    TypeMismatch {
        /// Offending column name.
        column: String,
        /// The type it requires.
        expected: ValueType,
    },
    /// No table of that name in the catalog.
    NoSuchTable(String),
    /// Duplicate table registration.
    TableExists(String),
    /// Index name not defined on the table.
    NoSuchIndex {
        /// The table the lookup targeted.
        table: String,
        /// The missing index name.
        index: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} columns")
            }
            DbError::TypeMismatch { column, expected } => {
                write!(f, "column {column} expects {expected:?}")
            }
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::NoSuchIndex { table, index } => {
                write!(f, "no such index: {index} on {table}")
            }
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(&[
            ("id", ValueType::Int),
            ("name", ValueType::Text),
            ("score", ValueType::Float),
        ])
    }

    #[test]
    fn schema_lookup_case_insensitive() {
        let s = schema();
        assert_eq!(s.index_of("ID"), Some(0));
        assert_eq!(s.index_of("Name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.arity(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        Schema::new(&[("a", ValueType::Int), ("A", ValueType::Text)]);
    }
}
