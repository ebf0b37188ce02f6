//! Tables, schemas, and the database catalog.

use std::collections::BTreeMap;
use std::fmt;

use crate::value::{Value, ValueType};

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
    /// Table name not in catalog.
    NoSuchTable(String),
    /// Duplicate table registration.
    TableExists(String),
    /// Index name not defined on the table.
    NoSuchIndex {
        /// Table the lookup targeted.
        table: String,
        /// The missing index name.
        index: String,
    },
    /// A row/cell access past the end of a result row.
    ColumnOutOfRange {
        /// Requested column position.
        index: usize,
        /// Number of columns in the row.
        arity: usize,
    },
    /// A typed cell accessor hit a value of a different type.
    CellType {
        /// Column position accessed.
        index: usize,
        /// The type the accessor requires.
        expected: ValueType,
        /// Display form of the value actually there.
        got: String,
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
            DbError::ColumnOutOfRange { index, arity } => {
                write!(f, "column {index} out of range for a {arity}-column row")
            }
            DbError::CellType { index, expected, got } => {
                write!(f, "column {index} expected {expected:?}, found {got}")
            }
        }
    }
}

impl std::error::Error for DbError {}

/// A heap table: schema + row storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The table's schema.
    pub schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Empty table with the given schema.
    pub fn new(schema: Schema) -> Table {
        Table { schema, rows: Vec::new() }
    }

    /// Insert a row after arity/type checking (NULL fits any column).
    pub fn insert(&mut self, row: Vec<Value>) -> Result<(), DbError> {
        if row.len() != self.schema.arity() {
            return Err(DbError::ArityMismatch { expected: self.schema.arity(), got: row.len() });
        }
        for (v, c) in row.iter().zip(&self.schema.columns) {
            if let Some(t) = v.value_type() {
                let ok = t == c.ty
                    // Int is acceptable where Float is expected
                    || (t == ValueType::Int && c.ty == ValueType::Float);
                if !ok {
                    return Err(DbError::TypeMismatch { column: c.name.clone(), expected: c.ty });
                }
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Mutable row access for in-place updates (the caller is responsible
    /// for keeping values type-compatible with the schema).
    pub fn rows_mut(&mut self) -> &mut [Vec<Value>] {
        &mut self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The database: a named collection of tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Create a table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), DbError> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(DbError::TableExists(name.to_string()));
        }
        self.tables.insert(key, Table::new(schema));
        Ok(())
    }

    /// Look up a table (case-insensitive).
    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Mutable lookup.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Insert into a named table.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), DbError> {
        self.table_mut(table)?.insert(row)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }
}

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

    #[test]
    fn insert_validates_arity() {
        let mut t = Table::new(schema());
        let err = t.insert(vec![Value::Int(1)]).unwrap_err();
        assert_eq!(err, DbError::ArityMismatch { expected: 3, got: 1 });
    }

    #[test]
    fn insert_validates_types() {
        let mut t = Table::new(schema());
        let err = t
            .insert(vec![Value::Text("x".into()), Value::Text("y".into()), Value::Float(0.5)])
            .unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }));
    }

    #[test]
    fn int_widens_to_float() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Int(1), Value::Text("a".into()), Value::Int(5)]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn null_fits_any_column() {
        let mut t = Table::new(schema());
        t.insert(vec![Value::Null, Value::Null, Value::Null]).unwrap();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn database_catalog_operations() {
        let mut db = Database::new();
        db.create_table("T1", schema()).unwrap();
        assert!(matches!(db.create_table("t1", schema()), Err(DbError::TableExists(_))));
        db.insert("t1", vec![Value::Int(1), Value::Text("a".into()), Value::Float(0.5)]).unwrap();
        assert_eq!(db.table("T1").unwrap().len(), 1);
        assert!(matches!(db.table("nope"), Err(DbError::NoSuchTable(_))));
        assert_eq!(db.table_names(), vec!["t1"]);
    }
}
