//! SciCumulus XML workflow specifications (paper Fig. 2) and the minimal
//! XML parser behind them.
//!
//! SciCumulus workflows are declared in an XML file listing the database,
//! the workflow tag/exectag/expdir, and each activity with its activation
//! command template, input/output relations, and instrumented files. This
//! module parses and renders that dialect; binding activity tags to
//! executable Rust functions happens in [`crate::workflow`].

use std::fmt;

/// A parsed XML element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlElement {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements (text content is not preserved; the dialect is
    /// attribute-only).
    pub children: Vec<XmlElement>,
}

impl XmlElement {
    /// Attribute value by case-insensitive name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// Children with a given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> {
        self.children.iter().filter(move |c| c.name.eq_ignore_ascii_case(name))
    }

    /// First child with a given tag name.
    pub fn child(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// XML parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset of the problem.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Parse an XML document (subset: declaration, comments, elements with
/// double-quoted attributes, self-closing tags; text nodes are skipped).
pub fn parse_xml(input: &str) -> Result<XmlElement, XmlError> {
    let mut p = XmlParser { input: input.as_bytes(), pos: 0 };
    p.skip_misc()?;
    let root = p.element()?;
    p.skip_misc()?;
    if p.pos != p.input.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

struct XmlParser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> XmlParser<'a> {
    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError { position: self.pos, message: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, XML declarations, comments, and stray text.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                match self.input[self.pos..].windows(2).position(|w| w == b"?>") {
                    Some(off) => self.pos += off + 2,
                    None => return Err(self.err("unterminated <?...?>")),
                }
            } else if self.starts_with("<!--") {
                match self.input[self.pos..].windows(3).position(|w| w == b"-->") {
                    Some(off) => self.pos += off + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ch = c as char;
            if ch.is_ascii_alphanumeric() || ch == '_' || ch == '-' || ch == ':' || ch == '.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn element(&mut self) -> Result<XmlElement, XmlError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok(XmlElement { name, attributes, children: Vec::new() });
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err(format!("expected '=' after attribute {key}")));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected '\"'"));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != b'"') {
                        self.pos += 1;
                    }
                    if self.peek().is_none() {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                    self.pos += 1;
                    attributes.push((key, unescape(&raw)));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
        // children until matching close tag
        let mut children = Vec::new();
        loop {
            self.skip_misc()?;
            // skip plain text content
            while self.peek().is_some_and(|c| c != b'<') {
                self.pos += 1;
            }
            if self.peek().is_none() {
                return Err(self.err(format!("missing </{name}>")));
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if !close.eq_ignore_ascii_case(&name) {
                    return Err(self.err(format!("mismatched </{close}>, expected </{name}>")));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected '>' in close tag"));
                }
                self.pos += 1;
                return Ok(XmlElement { name, attributes, children });
            }
            if self.starts_with("<!--") {
                self.skip_misc()?;
                continue;
            }
            children.push(self.element()?);
        }
    }
}

fn unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

// ---------------------------------------------------------------------------
// The SciCumulus dialect
// ---------------------------------------------------------------------------

/// `<database .../>` connection info (kept for fidelity; our store is
/// in-process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseSpec {
    /// Database name.
    pub name: String,
    /// Server host.
    pub server: String,
    /// TCP port.
    pub port: u16,
}

/// `<Relation reltype=… name=… filename=…/>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSpec {
    /// Input or output.
    pub reltype: RelType,
    /// Relation name.
    pub name: String,
    /// The file that holds the relation.
    pub filename: String,
}

/// Input or output relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelType {
    /// Consumed by the activity.
    Input,
    /// Produced by the activity.
    Output,
}

/// `<File filename=… instrumented=…/>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSpec {
    /// File name inside the template directory.
    pub filename: String,
    /// Whether SciCumulus instruments it (tag substitution).
    pub instrumented: bool,
}

/// One `<SciCumulusActivity …>` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityXml {
    /// Activity tag.
    pub tag: String,
    /// Template directory path.
    pub templatedir: String,
    /// Activation command.
    pub activation: String,
    /// Algebraic operator name (`MAP`, `FILTER`, `SPLITMAP`, `REDUCE`, …).
    pub operator: String,
    /// Input/output relations.
    pub relations: Vec<RelationSpec>,
    /// Instrumented files.
    pub files: Vec<FileSpec>,
}

/// A complete `<SciCumulus>` specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SciCumulusSpec {
    /// Provenance database connection.
    pub database: DatabaseSpec,
    /// Workflow tag.
    pub tag: String,
    /// Human description.
    pub description: String,
    /// Execution tag.
    pub exectag: String,
    /// Experiment directory.
    pub expdir: String,
    /// The workflow's activities.
    pub activities: Vec<ActivityXml>,
}

impl SciCumulusSpec {
    /// Parse a SciCumulus XML document.
    pub fn from_xml(text: &str) -> Result<SciCumulusSpec, XmlError> {
        let root = parse_xml(text)?;
        if !root.name.eq_ignore_ascii_case("SciCumulus") {
            return Err(XmlError {
                position: 0,
                message: format!("root element is <{}>, expected <SciCumulus>", root.name),
            });
        }
        let db = root
            .child("database")
            .ok_or_else(|| XmlError { position: 0, message: "missing <database>".into() })?;
        let database = DatabaseSpec {
            name: db.attr("name").unwrap_or("scicumulus").to_string(),
            server: db.attr("server").unwrap_or("localhost").to_string(),
            port: db.attr("port").and_then(|p| p.parse().ok()).unwrap_or(5432),
        };
        let wf = root.child("SciCumulusWorkflow").ok_or_else(|| XmlError {
            position: 0,
            message: "missing <SciCumulusWorkflow>".into(),
        })?;
        let req = |el: &XmlElement, a: &str| -> Result<String, XmlError> {
            el.attr(a).map(str::to_string).ok_or_else(|| XmlError {
                position: 0,
                message: format!("<{}> missing attribute {a:?}", el.name),
            })
        };
        let mut activities = Vec::new();
        for act in wf.children_named("SciCumulusActivity") {
            let mut relations = Vec::new();
            for rel in act.children_named("Relation") {
                let reltype = match rel.attr("reltype") {
                    Some(t) if t.eq_ignore_ascii_case("input") => RelType::Input,
                    Some(t) if t.eq_ignore_ascii_case("output") => RelType::Output,
                    other => {
                        return Err(XmlError {
                            position: 0,
                            message: format!("bad reltype {other:?}"),
                        })
                    }
                };
                relations.push(RelationSpec {
                    reltype,
                    name: req(rel, "name")?,
                    filename: req(rel, "filename")?,
                });
            }
            let files = act
                .children_named("File")
                .map(|f| {
                    Ok(FileSpec {
                        filename: req(f, "filename")?,
                        instrumented: f
                            .attr("instrumented")
                            .map(|v| v.eq_ignore_ascii_case("true"))
                            .unwrap_or(false),
                    })
                })
                .collect::<Result<Vec<_>, XmlError>>()?;
            activities.push(ActivityXml {
                tag: req(act, "tag")?,
                templatedir: act.attr("templatedir").unwrap_or("").to_string(),
                activation: act.attr("activation").unwrap_or("").to_string(),
                operator: act.attr("operator").unwrap_or("MAP").to_string(),
                relations,
                files,
            });
        }
        Ok(SciCumulusSpec {
            database,
            tag: req(wf, "tag")?,
            description: wf.attr("description").unwrap_or("").to_string(),
            exectag: wf.attr("exectag").unwrap_or("").to_string(),
            expdir: wf.attr("expdir").unwrap_or("").to_string(),
            activities,
        })
    }

    /// Render back to XML (round-trips through [`SciCumulusSpec::from_xml`]).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        out.push_str("<?xml version=\"1.0\"?>\n<SciCumulus>\n");
        out.push_str(&format!(
            "  <database name=\"{}\" port=\"{}\" server=\"{}\"/>\n",
            escape(&self.database.name),
            self.database.port,
            escape(&self.database.server)
        ));
        out.push_str(&format!(
            "  <SciCumulusWorkflow tag=\"{}\" description=\"{}\" exectag=\"{}\" expdir=\"{}\">\n",
            escape(&self.tag),
            escape(&self.description),
            escape(&self.exectag),
            escape(&self.expdir)
        ));
        for a in &self.activities {
            out.push_str(&format!(
                "    <SciCumulusActivity tag=\"{}\" templatedir=\"{}\" activation=\"{}\" operator=\"{}\">\n",
                escape(&a.tag),
                escape(&a.templatedir),
                escape(&a.activation),
                escape(&a.operator)
            ));
            for r in &a.relations {
                out.push_str(&format!(
                    "      <Relation reltype=\"{}\" name=\"{}\" filename=\"{}\"/>\n",
                    match r.reltype {
                        RelType::Input => "Input",
                        RelType::Output => "Output",
                    },
                    escape(&r.name),
                    escape(&r.filename)
                ));
            }
            for f in &a.files {
                out.push_str(&format!(
                    "      <File filename=\"{}\" instrumented=\"{}\"/>\n",
                    escape(&f.filename),
                    f.instrumented
                ));
            }
            out.push_str("    </SciCumulusActivity>\n");
        }
        out.push_str("  </SciCumulusWorkflow>\n</SciCumulus>\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 2 excerpt, completed into a well-formed document.
    const FIG2: &str = r#"<?xml version="1.0"?>
<SciCumulus>
  <database name="scicumulus" port="5432" server="ec2-50-17-107-164.compute-1.amazonaws.com"/>
  <SciCumulusWorkflow tag="SciDock" description="Docking" exectag="scidock" expdir="/root/scidock/">
    <SciCumulusActivity tag="babel" templatedir="/root/scidock/template_babel/" activation="./experiment.cmd">
      <Relation reltype="Input" name="rel_in_1" filename="input_1.txt"/>
      <Relation reltype="Output" name="rel_out1" filename="output_1.txt"/>
      <File filename="experiment.cmd" instrumented="true"/>
    </SciCumulusActivity>
  </SciCumulusWorkflow>
</SciCumulus>
"#;

    #[test]
    fn parses_fig2() {
        let spec = SciCumulusSpec::from_xml(FIG2).unwrap();
        assert_eq!(spec.tag, "SciDock");
        assert_eq!(spec.exectag, "scidock");
        assert_eq!(spec.expdir, "/root/scidock/");
        assert_eq!(spec.database.port, 5432);
        assert!(spec.database.server.starts_with("ec2-50-17"));
        assert_eq!(spec.activities.len(), 1);
        let a = &spec.activities[0];
        assert_eq!(a.tag, "babel");
        assert_eq!(a.activation, "./experiment.cmd");
        assert_eq!(a.relations.len(), 2);
        assert_eq!(a.relations[0].reltype, RelType::Input);
        assert_eq!(a.relations[1].filename, "output_1.txt");
        assert_eq!(a.files.len(), 1);
        assert!(a.files[0].instrumented);
        // default operator
        assert_eq!(a.operator, "MAP");
    }

    #[test]
    fn xml_roundtrip() {
        let spec = SciCumulusSpec::from_xml(FIG2).unwrap();
        let text = spec.to_xml();
        let again = SciCumulusSpec::from_xml(&text).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn escaping_roundtrip() {
        let mut spec = SciCumulusSpec::from_xml(FIG2).unwrap();
        spec.description = "a <b> & \"c\"".to_string();
        let again = SciCumulusSpec::from_xml(&spec.to_xml()).unwrap();
        assert_eq!(again.description, "a <b> & \"c\"");
    }

    #[test]
    fn self_closing_and_comments() {
        let doc = "<root><!-- note --><leaf a=\"1\"/><!-- tail --></root>";
        let el = parse_xml(doc).unwrap();
        assert_eq!(el.children.len(), 1);
        assert_eq!(el.children[0].attr("a"), Some("1"));
    }

    #[test]
    fn mismatched_close_rejected() {
        let err = parse_xml("<a><b></a></b>").unwrap_err();
        assert!(err.to_string().contains("mismatched"));
    }

    #[test]
    fn unterminated_rejected() {
        assert!(parse_xml("<a><b></b>").is_err());
        assert!(parse_xml("<a attr=\"x>").is_err());
        assert!(parse_xml("<?xml never closed").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_xml("<a/><b/>").is_err());
    }

    #[test]
    fn missing_required_parts() {
        assert!(SciCumulusSpec::from_xml("<root/>").is_err());
        assert!(SciCumulusSpec::from_xml("<SciCumulus></SciCumulus>").is_err());
        let no_wf = "<SciCumulus><database name=\"d\" port=\"1\" server=\"s\"/></SciCumulus>";
        assert!(SciCumulusSpec::from_xml(no_wf).is_err());
    }

    #[test]
    fn bad_reltype_rejected() {
        let doc = r#"<SciCumulus>
  <database name="d" port="1" server="s"/>
  <SciCumulusWorkflow tag="T" description="" exectag="t" expdir="/">
    <SciCumulusActivity tag="x" activation="cmd">
      <Relation reltype="Sideways" name="r" filename="f"/>
    </SciCumulusActivity>
  </SciCumulusWorkflow>
</SciCumulus>"#;
        let err = SciCumulusSpec::from_xml(doc).unwrap_err();
        assert!(err.to_string().contains("reltype"));
    }

    #[test]
    fn attr_lookup_case_insensitive() {
        let el = parse_xml("<x Foo=\"bar\"/>").unwrap();
        assert_eq!(el.attr("foo"), Some("bar"));
        assert_eq!(el.attr("FOO"), Some("bar"));
        assert_eq!(el.attr("nope"), None);
    }
}
