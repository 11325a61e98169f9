//! A std-only item parser layered on the masked lexer output.
//!
//! [`parse`] extracts the symbols the graph-aware rules need from one
//! lexed file: struct definitions with their fields, `impl` blocks
//! binding methods to their owning type, free and associated fns with the
//! parts of their bodies the rules query (call edges, `SimRng::seed`
//! sites, `self.f.method(..)` calls, a `let Self` destructure, the names
//! a `count` or `scope` leaf folds), consts (cap-constant evidence for
//! `bounded-state`), `pub` items and fields, the names each file uses
//! (`wide-export`) and the places it reads a name as a value (`fold-only`).
//!
//! This is deliberately not a full Rust grammar: it token-scans with
//! brace/angle matching, which is exact for the rustfmt-formatted code in
//! this workspace and degrades to "sees nothing" (never to a spurious
//! symbol) on constructs it does not model. Rules built on it are tuned
//! for precision: a miss weakens coverage, a false symbol would create a
//! false violation.

use crate::lexer::LexedFile;
use std::collections::{BTreeMap, BTreeSet};

/// One token of masked code: an identifier/number or a punctuation blob.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Tok {
    text: String,
    line: usize,
}

/// The visibility a field is declared with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Vis {
    /// No `pub`: visible in its module.
    Private,
    /// `pub(crate)`, `pub(super)`, `pub(in ..)`.
    Restricted,
    /// A plain `pub`.
    Public,
}

/// One struct field.
#[derive(Debug, Clone)]
pub(crate) struct FieldDef {
    /// Field name (tuple fields are `"0"`, `"1"`, ...).
    pub name: String,
    /// Field type as a space-joined token string (`Vec < SpanRecord >`).
    pub ty: String,
    /// 1-based line of the field.
    pub line: usize,
    /// 1-based line of the field type's last token.
    pub end: usize,
    /// Declared visibility (tuple fields read as private).
    pub vis: Vis,
}

/// One struct definition.
#[derive(Debug, Clone)]
pub(crate) struct StructDef {
    /// Type name (generics stripped).
    pub name: String,
    /// 1-based line of the `struct` item.
    pub line: usize,
    /// Declared with a plain `pub`.
    pub public: bool,
    /// Declared fields, in order.
    pub fields: Vec<FieldDef>,
}

/// One `self.<field>.<method>(...)` call observed in a fn body, or the
/// same call through a closure parameter (`|s| s.<field>.<method>(...)`),
/// which in a method is the owner handed back to a closure.
#[derive(Debug, Clone)]
pub(crate) struct FieldOp {
    /// The field name.
    pub field: String,
    /// The method called on it, mutating or not.
    pub method: String,
}

/// The body facts a fn contributes to the symbol graph.
#[derive(Debug, Clone, Default)]
pub(crate) struct BodyInfo {
    /// Callee names: `foo(...)`, `self.foo(...)`, `Type::foo(...)` all
    /// contribute `foo` (in-file call edges for `seed-dataflow`).
    pub calls: Vec<String>,
    /// Lines where the body seeds a fresh stream via `SimRng::seed(...)`.
    pub rng_seed_lines: Vec<usize>,
    /// `self.<field>.<method>(...)` and `<closure param>.<field>.<method>(...)`
    /// calls (growth and shrink evidence).
    pub field_ops: Vec<FieldOp>,
    /// The tokens between the brackets of the body's first `let Self {..}`
    /// or `let Self(..)` pattern, if it has one.
    pub self_pattern: Option<Vec<String>>,
    /// Identifiers inside the arguments of `.count(..)` and `.scope(..)`
    /// calls: in a fold, what reaches the `Stats` sink.
    pub leaf_args: BTreeSet<String>,
}

/// One fn definition (free or associated).
#[derive(Debug, Clone)]
pub(crate) struct FnDef {
    /// Fn name.
    pub name: String,
    /// 1-based line of the `fn` item.
    pub line: usize,
    /// 1-based line of the body's closing brace (of the `;` for a
    /// declaration).
    pub end: usize,
    /// `Some(Type)` when the fn sits in an `impl Type` / `impl Tr for Type`.
    pub owner: Option<String>,
    /// True for `&mut self` / `mut self` receivers.
    pub takes_mut_self: bool,
    /// Identifiers appearing in the parameter list (type names included),
    /// e.g. `SimRng` for `rng: &mut SimRng`.
    pub sig_idents: BTreeSet<String>,
    /// Extracted body facts (empty for trait-method declarations).
    pub body: BodyInfo,
}

/// One `const`/`static` item (associated or module-level).
#[derive(Debug, Clone)]
pub(crate) struct ConstDef {
    /// Item name (conventionally SCREAMING_CASE).
    pub name: String,
    /// `Some(Type)` for associated consts.
    pub owner: Option<String>,
}

/// One item exported with a plain `pub` (not `pub(crate)` / `pub(super)`):
/// a free fn, inherent method, const or static, struct, enum, trait or type
/// alias, or a named field of a `pub` struct.
#[derive(Debug, Clone)]
pub(crate) struct ExportDef {
    /// Item name.
    pub name: String,
    /// The keyword that introduced it (`fn`, `const`, `struct`, ...), or
    /// `field`.
    pub keyword: &'static str,
    /// `Some(Type)` for inherent methods, associated consts and fields.
    pub owner: Option<String>,
    /// 1-based line of the item's name.
    pub line: usize,
    /// 1-based line of the item's last token.
    pub end: usize,
}

impl ExportDef {
    /// `Owner::name` for a method, associated const or field, else the
    /// name.
    pub(crate) fn path(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything the parser extracts from one file.
#[derive(Debug, Clone, Default)]
pub(crate) struct FileSyntax {
    /// Struct definitions (item position only, not inside fn bodies).
    pub structs: Vec<StructDef>,
    /// Fn definitions, with impl owners attached.
    pub fns: Vec<FnDef>,
    /// Const/static items.
    pub consts: Vec<ConstDef>,
    /// `pub` items, in source order.
    pub exports: Vec<ExportDef>,
    /// Every identifier the masked code names, with the lines it is named
    /// on; the names an item definition introduces and the paths of
    /// `pub use` re-exports are not references and are left out.
    pub refs: BTreeMap<String, Vec<usize>>,
    /// The lines each name is read on as a value: every reference except
    /// `.name(` (a method), `.name =` and `.name += ..` (stores) and `name:`
    /// (a field definition or initialiser, a parameter, a pattern's field).
    pub reads: BTreeMap<String, Vec<usize>>,
    /// Types the file builds with struct update syntax
    /// (`Type { a: 1, ..base }`), which needs every field visible.
    pub updates: BTreeSet<String>,
}

const MULTI_TOKS: &[&str] = &[
    "<<=", ">>=", "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "^=",
    "&=", "|=",
];

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn tokenize(code_lines: &[String]) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (idx, line) in code_lines.iter().enumerate() {
        let lineno = idx + 1;
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if is_ident_char(c) {
                let start = i;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line: lineno,
                });
                continue;
            }
            let rest: String = chars[i..chars.len().min(i + 3)].iter().collect();
            if let Some(m) = MULTI_TOKS.iter().find(|m| rest.starts_with(**m)) {
                toks.push(Tok {
                    text: (*m).to_string(),
                    line: lineno,
                });
                i += m.len();
                continue;
            }
            toks.push(Tok {
                text: c.to_string(),
                line: lineno,
            });
            i += 1;
        }
    }
    toks
}

struct Parser<'a> {
    toks: &'a [Tok],
    i: usize,
    out: FileSyntax,
}

impl<'a> Parser<'a> {
    fn cur(&self) -> Option<&'a Tok> {
        self.toks.get(self.i)
    }

    fn at(&self, off: usize) -> &str {
        self.toks.get(self.i + off).map_or("", |t| t.text.as_str())
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    /// Skip to just past the `;` that ends the current item, ignoring any
    /// nested braces/brackets/parens (e.g. a const initializer).
    fn skip_to_semi(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.cur() {
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                ";" if depth <= 0 => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skip a balanced region that starts at the current `open` token.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        let mut depth = 0i64;
        while let Some(t) = self.cur() {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Skip `<...>` generics if present at the cursor.
    fn skip_generics(&mut self) {
        if self.at(0) == "<" {
            self.skip_balanced("<", ">");
        }
    }

    /// Record the item that started at token `start` as exported; the
    /// cursor sits just past its last token.
    fn export(&mut self, start: usize, owner: Option<&str>) {
        let keyword = match self.toks[start].text.as_str() {
            "fn" => "fn",
            "const" => "const",
            "static" => "static",
            "struct" => "struct",
            "enum" => "enum",
            "trait" => "trait",
            "type" => "type",
            _ => return,
        };
        let is_mut = self.toks.get(start + 1).is_some_and(|t| t.text == "mut");
        let Some(name) = self.toks.get(start + 1 + usize::from(is_mut)) else {
            return;
        };
        if name.text == "_" || !name.text.chars().next().is_some_and(is_ident_char) {
            return;
        }
        self.out.exports.push(ExportDef {
            name: name.text.clone(),
            keyword,
            owner: owner.map(str::to_string),
            line: name.line,
            end: self.last_line(),
        });
        if keyword == "struct" {
            let Some(def) = self.out.structs.last() else { return };
            // Tuple fields read as private: a position is no name to find.
            let fields = def.fields.iter().filter(|f| f.vis == Vis::Public);
            let fields: Vec<ExportDef> = fields
                .map(|f| ExportDef {
                    name: f.name.clone(),
                    keyword: "field",
                    owner: Some(def.name.clone()),
                    line: f.line,
                    end: f.end,
                })
                .collect();
            self.out.exports.extend(fields);
        }
    }

    /// Line of the last token consumed.
    fn last_line(&self) -> usize {
        self.toks[..self.i.min(self.toks.len())]
            .last()
            .map_or(0, |t| t.line)
    }

    /// Parse items until the matching `}` of the enclosing block (or EOF).
    fn parse_items(&mut self, owner: Option<&str>) {
        // A plain `pub` (not `pub(crate)` / `pub(super)`) ahead of the item.
        let mut public = false;
        while let Some(t) = self.cur() {
            let start = self.i;
            match t.text.as_str() {
                "}" => {
                    self.bump();
                    return;
                }
                "#" => {
                    // Attribute: `#[...]` or `#![...]`.
                    self.bump();
                    if self.at(0) == "!" {
                        self.bump();
                    }
                    if self.at(0) == "[" {
                        self.skip_balanced("[", "]");
                    }
                    continue;
                }
                "pub" => {
                    self.bump();
                    public = self.at(0) != "(";
                    if !public {
                        self.skip_balanced("(", ")");
                    }
                    continue;
                }
                "unsafe" | "async" | "default" => {
                    self.bump();
                    continue;
                }
                "extern" => {
                    // `extern crate x;` or an extern block.
                    self.bump();
                    if self.at(0) == "crate" {
                        self.skip_to_semi();
                    } else if self.at(0) == "\"" {
                        // `extern "C"` — the masked ABI string is `"` `"`.
                        self.bump();
                        if self.at(0) == "\"" {
                            self.bump();
                        }
                    }
                }
                "use" => self.skip_to_semi(),
                "mod" => {
                    self.bump();
                    self.bump(); // name
                    if self.at(0) == "{" {
                        self.bump();
                        self.parse_items(None);
                    } else {
                        self.skip_to_semi();
                    }
                }
                "struct" => self.parse_struct(public),
                "enum" | "union" | "trait" => {
                    self.bump();
                    self.bump(); // name
                    self.skip_generics();
                    while let Some(t) = self.cur() {
                        match t.text.as_str() {
                            "{" => {
                                self.skip_balanced("{", "}");
                                break;
                            }
                            ";" => {
                                self.bump();
                                break;
                            }
                            "<" => self.skip_generics(),
                            _ => self.bump(),
                        }
                    }
                }
                "impl" => self.parse_impl(),
                "fn" => self.parse_fn(owner),
                "const" | "static" => {
                    self.bump();
                    match self.at(0) {
                        // `const fn` — reparse as a fn item.
                        "fn" => continue,
                        "mut" => self.bump(), // `static mut`
                        _ => {}
                    }
                    if let Some(t) = self.cur() {
                        if t.text.chars().next().is_some_and(is_ident_char) {
                            self.out.consts.push(ConstDef {
                                name: t.text.clone(),
                                owner: owner.map(str::to_string),
                            });
                        }
                    }
                    self.skip_to_semi();
                }
                "type" => self.skip_to_semi(),
                "macro_rules" => {
                    self.bump(); // macro_rules
                    self.bump(); // !
                    self.bump(); // name
                    match self.at(0) {
                        "{" => self.skip_balanced("{", "}"),
                        "(" => {
                            self.skip_balanced("(", ")");
                            self.skip_to_semi();
                        }
                        _ => {}
                    }
                }
                "{" => self.skip_balanced("{", "}"),
                _ => self.bump(),
            }
            if public {
                self.export(start, owner);
            }
            public = false;
        }
    }

    fn parse_struct(&mut self, public: bool) {
        self.bump(); // struct
        let Some(name_tok) = self.cur() else { return };
        let (name, line) = (name_tok.text.clone(), name_tok.line);
        self.bump();
        self.skip_generics();
        let mut def = StructDef {
            name,
            line,
            public,
            fields: Vec::new(),
        };
        // Optional where clause, then `;` (unit), `(...)` (tuple) or `{...}`.
        while let Some(t) = self.cur() {
            match t.text.as_str() {
                ";" => {
                    self.bump();
                    break;
                }
                "(" => {
                    self.parse_tuple_fields(&mut def);
                    self.skip_to_semi();
                    break;
                }
                "{" => {
                    self.parse_named_fields(&mut def);
                    break;
                }
                "<" => self.skip_generics(),
                _ => self.bump(),
            }
        }
        self.out.structs.push(def);
    }

    fn parse_tuple_fields(&mut self, def: &mut StructDef) {
        self.bump(); // (
        let mut depth = 0i64;
        let mut idx = 0usize;
        let mut ty = Vec::new();
        let mut line = self.cur().map_or(0, |t| t.line);
        while let Some(t) = self.cur() {
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" if depth > 0 => depth -= 1,
                ")" => {
                    if !ty.is_empty() {
                        def.fields.push(FieldDef {
                            name: idx.to_string(),
                            ty: ty.join(" "),
                            line,
                            end: line,
                            vis: Vis::Private,
                        });
                    }
                    self.bump();
                    return;
                }
                "," if depth == 0 => {
                    def.fields.push(FieldDef {
                        name: idx.to_string(),
                        ty: ty.join(" "),
                        line,
                        end: line,
                        vis: Vis::Private,
                    });
                    idx += 1;
                    ty = Vec::new();
                    line = self.toks.get(self.i + 1).map_or(line, |t| t.line);
                    self.bump();
                    continue;
                }
                _ => {}
            }
            if t.text != "pub" {
                ty.push(t.text.clone());
            }
            self.bump();
        }
    }

    fn parse_named_fields(&mut self, def: &mut StructDef) {
        self.bump(); // {
        let mut vis = Vis::Private;
        loop {
            match self.at(0) {
                "" | "}" => {
                    self.bump();
                    return;
                }
                "#" => {
                    self.bump();
                    if self.at(0) == "[" {
                        self.skip_balanced("[", "]");
                    }
                    continue;
                }
                "pub" => {
                    self.bump();
                    vis = Vis::Public;
                    if self.at(0) == "(" {
                        vis = Vis::Restricted;
                        self.skip_balanced("(", ")");
                    }
                    continue;
                }
                "," => {
                    self.bump();
                    continue;
                }
                _ => {}
            }
            let Some(name_tok) = self.cur() else { return };
            let (name, line) = (name_tok.text.clone(), name_tok.line);
            self.bump();
            if self.at(0) != ":" {
                // Not a field start we understand; resynchronize.
                continue;
            }
            self.bump(); // :
            let mut depth = 0i64;
            let mut ty = Vec::new();
            let mut end = line;
            while let Some(t) = self.cur() {
                match t.text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" if depth > 0 => depth -= 1,
                    "," if depth == 0 => break,
                    "}" if depth == 0 => break,
                    _ => {}
                }
                ty.push(t.text.clone());
                end = t.line;
                self.bump();
            }
            def.fields.push(FieldDef {
                name,
                ty: ty.join(" "),
                line,
                end,
                vis: std::mem::replace(&mut vis, Vis::Private),
            });
        }
    }

    fn parse_impl(&mut self) {
        self.bump(); // impl
        self.skip_generics();
        // Collect the type path; `Trait for Type` keeps what follows `for`.
        let mut path: Vec<String> = Vec::new();
        while let Some(t) = self.cur() {
            match t.text.as_str() {
                "for" => {
                    path.clear();
                    self.bump();
                }
                "where" => {
                    while self.cur().is_some_and(|t| t.text != "{") {
                        if self.at(0) == "<" {
                            self.skip_generics();
                        } else {
                            self.bump();
                        }
                    }
                }
                "{" => break,
                ";" => {
                    self.bump();
                    return;
                }
                "<" => self.skip_generics(),
                _ => {
                    if t.text.chars().next().is_some_and(is_ident_char) {
                        path.push(t.text.clone());
                    }
                    self.bump();
                }
            }
        }
        let ty = path.last().cloned().unwrap_or_default();
        if self.at(0) == "{" {
            self.bump();
            self.parse_items(if ty.is_empty() { None } else { Some(&ty) });
        }
    }

    fn parse_fn(&mut self, owner: Option<&str>) {
        self.bump(); // fn
        let Some(name_tok) = self.cur() else { return };
        let mut def = FnDef {
            name: name_tok.text.clone(),
            line: name_tok.line,
            end: name_tok.line,
            owner: owner.map(str::to_string),
            takes_mut_self: false,
            sig_idents: BTreeSet::new(),
            body: BodyInfo::default(),
        };
        self.bump();
        self.skip_generics();
        if self.at(0) == "(" {
            // Parameter list: collect idents, detect the receiver.
            let mut depth = 0i64;
            let mut prev = String::new();
            while let Some(t) = self.cur() {
                match t.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            self.bump();
                            break;
                        }
                    }
                    "self" if depth == 1 => {
                        def.takes_mut_self |= prev == "mut";
                    }
                    s if s.chars().next().is_some_and(is_ident_char) => {
                        def.sig_idents.insert(s.to_string());
                    }
                    _ => {}
                }
                prev = t.text.clone();
                self.bump();
            }
        }
        // Return type / where clause, up to the body or `;`.
        while let Some(t) = self.cur() {
            match t.text.as_str() {
                "{" => break,
                ";" => {
                    self.bump();
                    def.end = self.last_line();
                    self.out.fns.push(def);
                    return;
                }
                "<" => self.skip_generics(),
                _ => self.bump(),
            }
        }
        if self.at(0) == "{" {
            self.walk_body(&mut def.body);
        }
        def.end = self.last_line();
        self.out.fns.push(def);
    }

    /// The tokens strictly between the bracket at token `open` and the
    /// bracket that closes it.
    fn group_at(&self, open: usize) -> Vec<String> {
        let mut depth = 0i64;
        let mut out = Vec::new();
        for t in &self.toks[open..] {
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                break;
            }
            out.push(t.text.clone());
        }
        out.into_iter().skip(1).collect()
    }

    /// Walk a `{...}` body, extracting call edges, `SimRng::seed` sites,
    /// `self.<field>.<method>(...)` calls (and those through a closure
    /// parameter), the first `let Self` pattern and the names inside
    /// `.count(..)` and `.scope(..)` arguments.
    /// Nested items are swallowed into the enclosing fn's body facts, which
    /// is what the in-file dataflow rules want.
    fn walk_body(&mut self, body: &mut BodyInfo) {
        const NOT_CALLS: &[&str] = &[
            "if", "while", "for", "match", "return", "loop", "fn", "in", "as", "let", "else",
            "move", "unsafe", "self", "Some", "Ok", "Err",
        ];
        // Where a `|` opens a closure's parameter list rather than an or.
        const CLOSURE_OPENERS: &[&str] = &["(", ",", "=", "{", ";", "=>", "move", "return"];
        let mut closure_params: Vec<String> = Vec::new();
        let mut depth = 0i64;
        while let Some(t) = self.cur() {
            let prev = self.i.checked_sub(1).map_or("", |p| self.toks[p].text.as_str());
            if t.text == "|" && CLOSURE_OPENERS.contains(&prev) {
                closure_params.extend(self.closure_params());
            }
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            let text = t.text.clone();
            let line = t.line;
            if text.chars().next().is_some_and(is_ident_char) {
                // Call edge: `name(` not preceded by `fn`/`.`-less paths are
                // fine either way; a nested `fn helper(` is a definition.
                if self.at(1) == "(" && prev != "fn" && !NOT_CALLS.contains(&text.as_str()) {
                    body.calls.push(text.clone());
                }
                if text == "SimRng" && self.at(1) == "::" && self.at(2) == "seed" {
                    body.rng_seed_lines.push(line);
                }
                let (field, method) = (self.at(2), self.at(4));
                let receiver = text == "self" || prev != "." && closure_params.contains(&text);
                if receiver
                    && self.at(1) == "."
                    && field.chars().next().is_some_and(is_ident_char)
                    && self.at(3) == "."
                    && method.chars().next().is_some_and(is_ident_char)
                    && self.at(5) == "("
                {
                    let (field, method) = (field.to_string(), method.to_string());
                    body.field_ops.push(FieldOp { field, method });
                }
                if text == "let" && self.at(1) == "Self" && matches!(self.at(2), "{" | "(") {
                    body.self_pattern.get_or_insert_with(|| self.group_at(self.i + 2));
                }
                if prev == "." && matches!(text.as_str(), "count" | "scope") && self.at(1) == "(" {
                    let args = self.group_at(self.i + 1).into_iter();
                    body.leaf_args.extend(args.filter(|a| a.starts_with(is_ident_char)));
                }
            }
            self.bump();
        }
    }

    /// The names a closure's parameter list binds, read from the `|` at the
    /// cursor: `|s|`, `|a, mut b|`, `|s: &mut Stats|` (tuple and reference
    /// patterns bind nothing here).
    fn closure_params(&self) -> Vec<String> {
        let mut names = Vec::new();
        let mut at_start = true;
        for t in self.toks[self.i + 1..].iter().take_while(|t| t.text != "|") {
            match t.text.as_str() {
                "," => at_start = true,
                "mut" => {}
                name if at_start => {
                    if name.chars().next().is_some_and(is_ident_char) {
                        names.push(name.to_string());
                    }
                    at_start = false;
                }
                _ => {}
            }
        }
        names
    }
}

/// Every identifier the tokens name, by line: the name a definition
/// introduces (`fn x`, `struct X`, ...) is not a reference, and neither is
/// anything inside a `pub use` / `pub(crate) use` re-export. The second map
/// keeps the references that read the name as a value (see
/// [`FileSyntax::reads`]).
type NameLines = BTreeMap<String, Vec<usize>>;

fn collect_refs(toks: &[Tok]) -> (NameLines, NameLines) {
    const DEFINES: &[&str] = &[
        "fn", "struct", "enum", "union", "trait", "type", "const", "static",
    ];
    let mut refs: NameLines = BTreeMap::new();
    let mut reads: NameLines = BTreeMap::new();
    let mut i = 0usize;
    while let Some(t) = toks.get(i) {
        if t.text == "pub" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.text == "(") {
                while toks.get(j).is_some_and(|t| t.text != ")") {
                    j += 1;
                }
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.text == "use") {
                while toks.get(i).is_some_and(|t| t.text != ";") {
                    i += 1;
                }
                continue;
            }
        }
        let prev = i.checked_sub(1).map_or("", |p| toks[p].text.as_str());
        let next = toks.get(i + 1).map_or("", |t| t.text.as_str());
        let defined = DEFINES.contains(&prev);
        let ident = t.text.starts_with(|c: char| c.is_alphabetic() || c == '_');
        if ident && !defined {
            refs.entry(t.text.clone()).or_default().push(t.line);
            let read = match next {
                ":" => false,
                "(" | "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => {
                    prev != "."
                }
                _ => true,
            };
            if read {
                reads.entry(t.text.clone()).or_default().push(t.line);
            }
        }
        i += 1;
    }
    (refs, reads)
}

/// The types `toks` build with struct update syntax: a `..` that opens a
/// field of a `Type { .. }` group and is followed by an expression (a
/// pattern's rest, `Type { a, .. }`, is followed by the `}`).
fn struct_updates(toks: &[Tok]) -> BTreeSet<String> {
    let mut types = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.text.starts_with(|c: char| c.is_ascii_uppercase()) || toks.get(i + 1).is_none_or(|t| t.text != "{") {
            continue;
        }
        let mut depth = 0i64;
        for (j, u) in toks.iter().enumerate().skip(i + 1) {
            match u.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                "." if depth == 1 => {
                    let at = |k: usize| toks.get(k).map_or("", |t| t.text.as_str());
                    if matches!(at(j - 1), "{" | ",") && at(j + 1) == "." && at(j + 2) != "}" {
                        types.insert(t.text.clone());
                    }
                }
                _ => {}
            }
            if depth == 0 {
                break;
            }
        }
    }
    types
}

/// Parse one lexed file into its symbol-level view.
pub(crate) fn parse(lexed: &LexedFile) -> FileSyntax {
    let toks = tokenize(&lexed.code_lines);
    let mut parser = Parser {
        toks: &toks,
        i: 0,
        out: FileSyntax::default(),
    };
    parser.parse_items(None);
    let mut out = parser.out;
    (out.refs, out.reads) = collect_refs(&toks);
    out.updates = struct_updates(&toks);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> FileSyntax {
        parse(&lex(src))
    }

    #[test]
    fn structs_and_fields_are_extracted() {
        let src = "pub struct Ring {\n    items: VecDeque<u64>,\n    pub cap: usize,\n}\nstruct Pair(u32, Vec<u8>);\nstruct Unit;\n";
        let syn = parse_src(src);
        assert_eq!(syn.structs.len(), 3);
        let ring = &syn.structs[0];
        assert_eq!(ring.name, "Ring");
        assert_eq!(ring.fields.len(), 2);
        assert_eq!(ring.fields[0].name, "items");
        assert!(ring.fields[0].ty.contains("VecDeque"));
        assert_eq!(ring.fields[1].name, "cap");
        let pair = &syn.structs[1];
        assert_eq!(pair.fields[0].name, "0");
        assert!(pair.fields[1].ty.contains("Vec"));
        assert!(syn.structs[2].fields.is_empty());
    }

    #[test]
    fn generic_structs_and_where_clauses() {
        let src = "struct Keyed<K: Ord, V> where V: Clone {\n    map: BTreeMap<K, V>,\n}\n";
        let syn = parse_src(src);
        assert_eq!(syn.structs[0].name, "Keyed");
        assert_eq!(syn.structs[0].fields.len(), 1);
        assert!(syn.structs[0].fields[0].ty.contains("BTreeMap"));
    }

    #[test]
    fn impl_binds_methods_to_owner() {
        let src = "impl Ring {\n    pub fn push(&mut self, v: u64) { self.items.push_back(v); }\n    fn len(&self) -> usize { self.items.len() }\n}\nimpl fmt::Display for Ring {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { write!(f, \"\") }\n}\nfn free(rng: &mut SimRng) {}\n";
        let syn = parse_src(src);
        let push = syn.fns.iter().find(|f| f.name == "push").unwrap();
        assert_eq!(push.owner.as_deref(), Some("Ring"));
        assert!(push.takes_mut_self);
        let len = syn.fns.iter().find(|f| f.name == "len").unwrap();
        assert!(!len.takes_mut_self);
        let fmt = syn.fns.iter().find(|f| f.name == "fmt").unwrap();
        assert_eq!(fmt.owner.as_deref(), Some("Ring"));
        let free = syn.fns.iter().find(|f| f.name == "free").unwrap();
        assert!(free.owner.is_none());
        assert!(free.sig_idents.contains("SimRng"));
    }

    #[test]
    fn body_facts_record_field_calls_seeds_and_the_self_pattern() {
        let src = "impl S {\n    fn step(&mut self) {\n        let Self { count, log: _ } = self;\n        self.log.push(*count);\n        let r = SimRng::seed(7);\n        helper(&mut self.buf);\n        self.count += 1;\n    }\n}\n";
        let syn = parse_src(src);
        let step = &syn.fns[0];
        assert_eq!(step.body.rng_seed_lines, vec![5]);
        assert!(step.body.calls.contains(&"helper".to_string()));
        let ops: Vec<(&str, &str)> =
            step.body.field_ops.iter().map(|o| (o.field.as_str(), o.method.as_str())).collect();
        assert_eq!(ops, [("log", "push")]);
        let pattern = step.body.self_pattern.as_deref().unwrap();
        assert_eq!(pattern.join(" "), "count , log : _");
    }

    #[test]
    fn consts_carry_owners() {
        let src = "const TOP: usize = 4;\nimpl Ring {\n    const CAP: usize = 128;\n    fn id() {}\n}\nstatic NAME: &str = \"x\";\n";
        let syn = parse_src(src);
        let cap = syn.consts.iter().find(|c| c.name == "CAP").unwrap();
        assert_eq!(cap.owner.as_deref(), Some("Ring"));
        let top = syn.consts.iter().find(|c| c.name == "TOP").unwrap();
        assert!(top.owner.is_none());
        assert!(syn.consts.iter().any(|c| c.name == "NAME"));
    }

    #[test]
    fn const_fn_is_a_fn_not_a_const() {
        let src = "pub const fn zero() -> u64 { 0 }\n";
        let syn = parse_src(src);
        assert!(syn.consts.is_empty());
        assert_eq!(syn.fns[0].name, "zero");
    }

    #[test]
    fn exports_record_plain_pub_items_with_their_span() {
        let src = "pub struct Ring {\n    items: Vec<u8>,\n}\npub(crate) fn hidden() {}\nimpl Ring {\n    pub const CAP: usize = 4;\n    pub fn len(&self) -> usize {\n        self.items.len()\n    }\n}\nimpl Default for Ring {\n    fn default() -> Self {\n        Ring { items: Vec::new() }\n    }\n}\npub use inner::Other;\n";
        let syn = parse_src(src);
        let exports: Vec<(&str, &str, Option<&str>, usize, usize)> = syn
            .exports
            .iter()
            .map(|e| {
                let owner = e.owner.as_deref();
                (e.keyword, e.name.as_str(), owner, e.line, e.end)
            })
            .collect();
        assert_eq!(
            exports,
            [
                ("struct", "Ring", None, 1, 3),
                ("const", "CAP", Some("Ring"), 6, 6),
                ("fn", "len", Some("Ring"), 7, 9),
            ]
        );
        // Definitions and `pub use` paths are not references.
        assert_eq!(syn.refs["Ring"], [5, 11, 13]);
        assert!(!syn.refs.contains_key("hidden") && !syn.refs.contains_key("Other"));
    }

    #[test]
    fn pub_fields_of_pub_structs_are_exports() {
        let src = "pub struct Knob {\n    pub width: u64,\n    pub(crate) depth: u64,\n    pub kind:\n        Vec<u8>,\n    hidden: u64,\n}\nstruct Private {\n    pub v: u64,\n}\n";
        let syn = parse_src(src);
        let vis: Vec<Vis> = syn.structs[0].fields.iter().map(|f| f.vis).collect();
        assert_eq!(vis, [Vis::Public, Vis::Restricted, Vis::Public, Vis::Private]);
        assert!(syn.structs[0].public && !syn.structs[1].public);
        let exports: Vec<(&str, &str, usize, usize)> =
            syn.exports.iter().map(|e| (e.keyword, e.name.as_str(), e.line, e.end)).collect();
        assert_eq!(exports, [("struct", "Knob", 1, 7), ("field", "width", 2, 2), ("field", "kind", 4, 5)]);
        assert_eq!(syn.exports[1].path(), "Knob::width");
    }

    #[test]
    fn reads_leave_out_stores_methods_and_field_initialisers() {
        let src = "fn f(s: &mut S, n: u64) -> u64 {\n    s.a = n;\n    s.b += 1;\n    s.c(n);\n    let t = T { d: n, e };\n    s.g + t.d\n}\n";
        let syn = parse_src(src);
        for stored in ["a", "b", "c"] {
            assert!(!syn.reads.contains_key(stored), "{stored}");
        }
        // `d:` initialises a field; `t.d` reads it.
        assert_eq!(syn.reads["d"], [6]);
        assert_eq!(syn.reads["e"], [5]);
        assert_eq!(syn.reads["g"], [6]);
    }

    #[test]
    fn struct_update_syntax_is_told_from_a_rest_pattern() {
        let src = "fn f(k: Knob) -> Knob {\n    let Gauge { v, .. } = g;\n    let r = Span { lo: 0..4, hi: 2 };\n    Knob { width: 1, ..k }\n}\n";
        assert_eq!(parse_src(src).updates, BTreeSet::from(["Knob".to_string()]));
    }

    #[test]
    fn fns_record_their_end_and_what_count_and_scope_leaves_take() {
        let src = "impl S {\n    fn fold(&self, f: &mut impl Fold) {\n        let Self { a, b, c } = self;\n        f.write_u64(*a).count(\"b\", *b);\n        f.scope(\"c\", |f| c.fold(f));\n    }\n}\n";
        let fold = &parse_src(src).fns[0];
        assert_eq!((fold.line, fold.end), (2, 6));
        let leaves: Vec<&str> = fold.body.leaf_args.iter().map(String::as_str).collect();
        assert_eq!(leaves, ["b", "c", "f", "fold"]);
    }

    #[test]
    fn nested_mods_are_traversed() {
        let src = "mod inner {\n    pub struct Hidden { v: Vec<u8> }\n    impl Hidden { fn grow(&mut self) { self.v.push(0); } }\n}\n";
        let syn = parse_src(src);
        assert_eq!(syn.structs[0].name, "Hidden");
        assert_eq!(syn.fns[0].owner.as_deref(), Some("Hidden"));
    }
}
