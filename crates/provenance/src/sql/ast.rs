//! Abstract syntax tree of the SQL subset.

use crate::value::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Possibly-qualified column reference (`t.endtime`, `tag`).
    Column {
        /// The table name or alias qualifying it.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Function call: aggregates (`min`, `max`, `sum`, `avg`, `count`) and
    /// scalar functions (`abs`, `lower`, `upper`, `length`).
    Call {
        /// Lower-cased function name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `count(*)`.
    CountStar,
    /// `extract('epoch' from expr)` — PostgreSQL-style interval extraction.
    Extract {
        /// The extraction field (only `epoch` is supported).
        field: String,
        /// The source expression.
        from: Box<Expr>,
    },
    /// `expr LIKE 'pattern'` with `%` and `_` wildcards.
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// The pattern.
        pattern: String,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, …)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The candidate values.
        list: Vec<Expr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi` (inclusive).
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        lo: Box<Expr>,
        /// Upper bound.
        hi: Box<Expr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// `?` positional parameter (0-based, numbered left to right).
    ///
    /// Parameters are placeholders bound to typed [`Value`]s by
    /// [`ProvenanceStore::query_rows`](crate::ProvenanceStore::query_rows) before
    /// evaluation; an unbound parameter reaching the executor is an error.
    Param(usize),
}

impl Expr {
    /// Does this expression (transitively) contain an aggregate call?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Call { name, args } => {
                is_aggregate(name) || args.iter().any(Expr::contains_aggregate)
            }
            Expr::CountStar => true,
            Expr::Binary { lhs, rhs, .. } => lhs.contains_aggregate() || rhs.contains_aggregate(),
            Expr::Extract { from, .. } => from.contains_aggregate(),
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } | Expr::Neg(expr) => {
                expr.contains_aggregate()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.contains_aggregate() || lo.contains_aggregate() || hi.contains_aggregate()
            }
            Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_) => false,
        }
    }
}

/// Is `name` an aggregate function?
pub fn is_aggregate(name: &str) -> bool {
    matches!(name.to_ascii_lowercase().as_str(), "min" | "max" | "sum" | "avg" | "count")
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: Expr,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

/// A table reference in FROM: `name [alias]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// The table's name in the catalog.
    pub name: String,
    /// Optional binding alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table binds in the query (alias if present).
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// The sort expression.
    pub expr: Expr,
    /// `DESC` when true.
    pub descending: bool,
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Projected items (empty for `SELECT *`).
    pub items: Vec<SelectItem>,
    /// True for `SELECT *`.
    pub star: bool,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// FROM tables.
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY keys.
    pub group_by: Vec<Expr>,
    /// HAVING predicate (grouped queries only).
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row cap.
    pub limit: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Call {
            name: "min".into(),
            args: vec![Expr::Column { table: None, name: "x".into() }],
        };
        assert!(agg.contains_aggregate());
        let nested = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Literal(Value::Int(1))),
            rhs: Box::new(agg),
        };
        assert!(nested.contains_aggregate());
        let plain = Expr::Column { table: Some("t".into()), name: "y".into() };
        assert!(!plain.contains_aggregate());
        assert!(Expr::CountStar.contains_aggregate());
    }

    #[test]
    fn aggregate_names() {
        for n in ["min", "MAX", "Sum", "avg", "COUNT"] {
            assert!(is_aggregate(n), "{n}");
        }
        assert!(!is_aggregate("abs"));
        assert!(!is_aggregate("extract"));
    }

    #[test]
    fn table_binding() {
        let t = TableRef { name: "hworkflow".into(), alias: Some("w".into()) };
        assert_eq!(t.binding(), "w");
        let u = TableRef { name: "hactivity".into(), alias: None };
        assert_eq!(u.binding(), "hactivity");
    }
}
