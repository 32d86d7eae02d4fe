//! Offline shim for `serde_derive`.
//!
//! Generates `Serialize` impls against the workspace's vendored `serde`
//! shim (a JSON-value model, not the full serde data model). There is no
//! `Deserialize` derive: nothing in the workspace parses JSON into a typed
//! value. Implemented directly over `proc_macro::TokenStream` — the build
//! environment has no registry access, so `syn`/`quote` are unavailable.
//!
//! Supported shapes (everything the workspace derives on):
//! * structs with named fields            → JSON object, declaration order
//! * single-field tuple structs (newtype) → the inner value
//! * enums of unit variants               → `"VariantName"`
//! * enums of newtype variants            → `{"VariantName": value}`
//! * mixes of unit and newtype variants
//!
//! Generics, struct variants, and `#[serde(...)]` attributes are not
//! supported and produce a compile error naming the offending item.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    /// Named-field struct: field identifiers in declaration order.
    NamedStruct(Vec<String>),
    /// Tuple struct with exactly one field.
    Newtype,
    /// Enum: (variant name, has one tuple payload).
    Enum(Vec<(String, bool)>),
}

struct Def {
    name: String,
    shape: Shape,
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().expect("error tokens")
}

/// Skip attributes (`#[...]`, including doc comments) starting at `i`.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < tokens.len() {
        match (&tokens[i], &tokens[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                i += 2;
            }
            _ => break,
        }
    }
    i
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, ...) starting at `i`.
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = tokens.get(i) {
        if id.to_string() == "pub" {
            i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

/// Split a token slice on top-level commas.
fn split_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            if p.as_char() == ',' {
                out.push(std::mem::take(&mut cur));
                continue;
            }
        }
        cur.push(t.clone());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn parse(input: TokenStream) -> Result<Def, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_vis(&tokens, skip_attrs(&tokens, 0));
    let kw = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!("generic type `{name}` is not supported by the serde shim derive"));
        }
    }
    match kw.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                let mut fields = Vec::new();
                for chunk in split_commas(&body) {
                    let j = skip_vis(&chunk, skip_attrs(&chunk, 0));
                    match chunk.get(j) {
                        Some(TokenTree::Ident(id)) => fields.push(id.to_string()),
                        None => {}
                        other => return Err(format!("unexpected field token {other:?} in `{name}`")),
                    }
                }
                Ok(Def { name, shape: Shape::NamedStruct(fields) })
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                let n = split_commas(&body).len();
                if n != 1 {
                    return Err(format!(
                        "tuple struct `{name}` has {n} fields; the serde shim derive supports exactly 1"
                    ));
                }
                Ok(Def { name, shape: Shape::Newtype })
            }
            other => Err(format!("unsupported struct body for `{name}`: {other:?}")),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                let mut variants = Vec::new();
                for chunk in split_commas(&body) {
                    let j = skip_attrs(&chunk, 0);
                    let Some(TokenTree::Ident(id)) = chunk.get(j) else {
                        if chunk.is_empty() {
                            continue;
                        }
                        return Err(format!("unexpected variant tokens in `{name}`"));
                    };
                    let vname = id.to_string();
                    match chunk.get(j + 1) {
                        None => variants.push((vname, false)),
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                            let payload: Vec<TokenTree> = g.stream().into_iter().collect();
                            if split_commas(&payload).len() != 1 {
                                return Err(format!(
                                    "variant `{name}::{vname}` has multiple payload fields; unsupported"
                                ));
                            }
                            variants.push((vname, true));
                        }
                        Some(other) => {
                            return Err(format!(
                                "variant `{name}::{vname}` has unsupported shape near {other:?}"
                            ))
                        }
                    }
                }
                Ok(Def { name, shape: Shape::Enum(variants) })
            }
            other => Err(format!("unsupported enum body for `{name}`: {other:?}")),
        },
        other => Err(format!("expected `struct` or `enum`, found `{other}`")),
    }
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let def = match parse(input) {
        Ok(d) => d,
        Err(e) => return compile_error(&e),
    };
    let name = &def.name;
    let body = match &def.shape {
        Shape::NamedStruct(fields) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f}))")
                })
                .collect();
            format!("::serde::Value::Object(vec![{}])", pairs.join(", "))
        }
        Shape::Newtype => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, payload)| {
                    if *payload {
                        format!(
                            "{name}::{v}(__inner) => ::serde::Value::Object(vec![(\"{v}\".to_string(), ::serde::Serialize::to_value(__inner))])"
                        )
                    } else {
                        format!("{name}::{v} => ::serde::Value::Str(\"{v}\".to_string())")
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("serialize impl tokens")
}
