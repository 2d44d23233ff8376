//! Well-known RDF, RDFS and XSD vocabulary IRIs.
//!
//! The type-aware transformation (paper Section 4.1) is driven by
//! [`RDF_TYPE`] and [`RDFS_SUBCLASSOF`]; the inference engine additionally
//! uses [`RDFS_SUBPROPERTYOF`], [`RDFS_DOMAIN`] and [`RDFS_RANGE`].

/// `rdf:type` — "is an instance of".
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// `rdfs:subClassOf` — class specialization, folded transitively into vertex
/// label sets by the type-aware transformation.
pub const RDFS_SUBCLASSOF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";

/// `rdfs:subPropertyOf` — property specialization (used by LUBM inference,
/// e.g. `headOf ⊑ worksFor ⊑ memberOf`).
pub const RDFS_SUBPROPERTYOF: &str = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";

/// `rdfs:domain` — the class of the subject implied by a predicate.
pub const RDFS_DOMAIN: &str = "http://www.w3.org/2000/01/rdf-schema#domain";

/// `rdfs:range` — the class of the object implied by a predicate.
pub const RDFS_RANGE: &str = "http://www.w3.org/2000/01/rdf-schema#range";

/// `rdfs:Class`.
pub const RDFS_CLASS: &str = "http://www.w3.org/2000/01/rdf-schema#Class";

/// `rdfs:label`.
pub const RDFS_LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";

/// `xsd:integer`.
pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";

/// `xsd:double`.
pub const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";

/// `xsd:string`.
pub const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";

/// `xsd:dateTime`.
pub const XSD_DATETIME: &str = "http://www.w3.org/2001/XMLSchema#dateTime";

/// `xsd:boolean`.
pub const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_iris_are_well_formed() {
        for iri in [
            RDF_TYPE,
            RDFS_SUBCLASSOF,
            RDFS_SUBPROPERTYOF,
            RDFS_DOMAIN,
            RDFS_RANGE,
            RDFS_CLASS,
            RDFS_LABEL,
            XSD_INTEGER,
            XSD_DOUBLE,
            XSD_STRING,
            XSD_DATETIME,
            XSD_BOOLEAN,
        ] {
            assert!(crate::term::Term::iri(iri).validate().is_ok(), "{iri}");
        }
    }
}
