//! SciCumulus XML workflow specifications (paper Fig. 2).
//!
//! SciCumulus workflows are declared in an XML file listing the database,
//! the workflow tag/exectag/expdir, and each activity with its activation
//! command template, input/output relations, and instrumented files. This
//! module renders that dialect from a built workflow; binding activity tags
//! to executable Rust functions happens in [`crate::workflow`].

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
    /// Render as a SciCumulus XML document, attribute values escaped.
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

    /// The paper's Fig. 2 excerpt as a spec.
    fn fig2() -> SciCumulusSpec {
        SciCumulusSpec {
            database: DatabaseSpec {
                name: "scicumulus".into(),
                server: "ec2-50-17-107-164.compute-1.amazonaws.com".into(),
                port: 5432,
            },
            tag: "SciDock".into(),
            description: "Docking".into(),
            exectag: "scidock".into(),
            expdir: "/root/scidock/".into(),
            activities: vec![ActivityXml {
                tag: "babel".into(),
                templatedir: "/root/scidock/template_babel/".into(),
                activation: "./experiment.cmd".into(),
                operator: "MAP".into(),
                relations: vec![
                    RelationSpec {
                        reltype: RelType::Input,
                        name: "rel_in_1".into(),
                        filename: "input_1.txt".into(),
                    },
                    RelationSpec {
                        reltype: RelType::Output,
                        name: "rel_out1".into(),
                        filename: "output_1.txt".into(),
                    },
                ],
                files: vec![FileSpec { filename: "experiment.cmd".into(), instrumented: true }],
            }],
        }
    }

    #[test]
    fn renders_fig2() {
        let want = r#"<?xml version="1.0"?>
<SciCumulus>
  <database name="scicumulus" port="5432" server="ec2-50-17-107-164.compute-1.amazonaws.com"/>
  <SciCumulusWorkflow tag="SciDock" description="Docking" exectag="scidock" expdir="/root/scidock/">
    <SciCumulusActivity tag="babel" templatedir="/root/scidock/template_babel/" activation="./experiment.cmd" operator="MAP">
      <Relation reltype="Input" name="rel_in_1" filename="input_1.txt"/>
      <Relation reltype="Output" name="rel_out1" filename="output_1.txt"/>
      <File filename="experiment.cmd" instrumented="true"/>
    </SciCumulusActivity>
  </SciCumulusWorkflow>
</SciCumulus>
"#;
        assert_eq!(fig2().to_xml(), want);
    }

    #[test]
    fn attribute_values_are_escaped() {
        let mut spec = fig2();
        spec.description = "a <b> & \"c\"".to_string();
        assert!(spec.to_xml().contains(r#"description="a &lt;b&gt; &amp; &quot;c&quot;""#));
    }
}
