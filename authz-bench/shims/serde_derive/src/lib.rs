//! Working offline stand-in for `serde_derive`, for the authz-bench build.
//!
//! `syn` and `quote` are not available offline, so the item is parsed
//! straight from the `proc_macro` token stream and the impls are emitted
//! as source text. Supported: non-generic structs (named, tuple, unit) and
//! enums (unit, tuple and struct variants, externally tagged), and the
//! field attributes `default`, `skip`, `flatten` and `with = "module"`.
//! Anything else panics at expansion time, so an unsupported shape is a
//! compile error and never a silently different wire format.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct Attrs {
    default: bool,
    skip: bool,
    flatten: bool,
    with: Option<String>,
}

struct Field {
    /// Identifier as written (`r#type` stays raw); positional index for
    /// tuple fields.
    member: String,
    ty: String,
    attrs: Attrs,
}

impl Field {
    /// The key this field has on the wire.
    fn key(&self) -> &str {
        self.member.strip_prefix("r#").unwrap_or(&self.member)
    }
}

enum Shape {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    body: Body,
}

// ---- parsing ---------------------------------------------------------------

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Cursor {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn is_punct(&self, c: char) -> bool {
        matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == c)
    }

    fn is_ident(&self, word: &str) -> bool {
        matches!(self.peek(), Some(TokenTree::Ident(i)) if i.to_string() == word)
    }

    /// Consume leading `#[...]` attributes, folding `#[serde(...)]` ones
    /// into the result.
    fn attrs(&mut self) -> Attrs {
        let mut out = Attrs::default();
        while self.is_punct('#') {
            self.next();
            let Some(TokenTree::Group(g)) = self.next() else {
                panic!("serde shim: `#` not followed by an attribute");
            };
            let mut inner = Cursor::new(g.stream());
            if !inner.is_ident("serde") {
                continue;
            }
            inner.next();
            let Some(TokenTree::Group(args)) = inner.next() else {
                panic!("serde shim: malformed #[serde] attribute");
            };
            let mut args = Cursor::new(args.stream());
            while !args.at_end() {
                let Some(TokenTree::Ident(key)) = args.next() else {
                    panic!("serde shim: malformed #[serde] argument");
                };
                let value = if args.is_punct('=') {
                    args.next();
                    match args.next() {
                        Some(TokenTree::Literal(l)) => {
                            Some(l.to_string().trim_matches('"').to_string())
                        }
                        _ => panic!("serde shim: expected a string after `{key} =`"),
                    }
                } else {
                    None
                };
                match (key.to_string().as_str(), value) {
                    ("default", None) => out.default = true,
                    ("skip", None) => out.skip = true,
                    ("flatten", None) => out.flatten = true,
                    ("with", Some(path)) => out.with = Some(path),
                    (other, _) => panic!("serde shim: unsupported attribute `{other}`"),
                }
                if args.is_punct(',') {
                    args.next();
                }
            }
        }
        out
    }

    /// Consume `pub`, `pub(crate)`, `pub(in ..)` if present.
    fn visibility(&mut self) {
        if self.is_ident("pub") {
            self.next();
            if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                self.next();
            }
        }
    }

    /// Consume a type up to (not including) the next top-level comma.
    fn ty(&mut self) -> String {
        let mut depth = 0i32;
        let mut out = TokenStream::new();
        while let Some(t) = self.peek() {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
            out.extend(std::iter::once(self.next().expect("peeked")));
        }
        out.to_string()
    }
}

fn named_fields(stream: TokenStream) -> Vec<Field> {
    let mut c = Cursor::new(stream);
    let mut out = Vec::new();
    while !c.at_end() {
        let attrs = c.attrs();
        c.visibility();
        let Some(TokenTree::Ident(name)) = c.next() else {
            panic!("serde shim: expected a field name");
        };
        assert!(c.is_punct(':'), "serde shim: expected `:` after field name");
        c.next();
        let ty = c.ty();
        c.next(); // the comma, if any
        out.push(Field {
            member: name.to_string(),
            ty,
            attrs,
        });
    }
    out
}

fn tuple_fields(stream: TokenStream) -> Vec<Field> {
    let mut c = Cursor::new(stream);
    let mut out = Vec::new();
    while !c.at_end() {
        let attrs = c.attrs();
        c.visibility();
        let ty = c.ty();
        c.next();
        assert!(
            !(attrs.default || attrs.skip || attrs.flatten || attrs.with.is_some()),
            "serde shim: attributes on tuple fields are unsupported"
        );
        out.push(Field {
            member: out.len().to_string(),
            ty,
            attrs,
        });
    }
    out
}

fn shape_after_name(c: &mut Cursor) -> Shape {
    match c.peek() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let s = g.stream();
            c.next();
            Shape::Named(named_fields(s))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let s = g.stream();
            c.next();
            Shape::Tuple(tuple_fields(s))
        }
        _ => Shape::Unit,
    }
}

fn parse(input: TokenStream) -> Item {
    let mut c = Cursor::new(input);
    c.attrs();
    c.visibility();
    let Some(TokenTree::Ident(kw)) = c.next() else {
        panic!("serde shim: expected `struct` or `enum`");
    };
    let Some(TokenTree::Ident(name)) = c.next() else {
        panic!("serde shim: expected a type name");
    };
    let name = name.to_string();
    assert!(
        !c.is_punct('<'),
        "serde shim: generic type `{name}` is unsupported"
    );
    let body = match kw.to_string().as_str() {
        "struct" => Body::Struct(shape_after_name(&mut c)),
        "enum" => {
            let Some(TokenTree::Group(g)) = c.next() else {
                panic!("serde shim: expected enum body");
            };
            let mut v = Cursor::new(g.stream());
            let mut variants = Vec::new();
            while !v.at_end() {
                v.attrs();
                let Some(TokenTree::Ident(vname)) = v.next() else {
                    panic!("serde shim: expected a variant name");
                };
                let shape = shape_after_name(&mut v);
                // Skip an explicit discriminant.
                while !v.at_end() && !v.is_punct(',') {
                    v.next();
                }
                v.next();
                variants.push(Variant {
                    name: vname.to_string(),
                    shape,
                });
            }
            Body::Enum(variants)
        }
        other => panic!("serde shim: cannot derive for `{other}`"),
    };
    Item { name, body }
}

// ---- Serialize ---------------------------------------------------------------

const SER_SIG: &str = "fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
    -> ::core::result::Result<__S::Ok, __S::Error>";

/// Body serializing `fields` as a map. `field_ref(f)` is an expression of
/// type `&FieldTy`.
fn ser_named_body(fields: &[Field], field_ref: &dyn Fn(&Field) -> String) -> String {
    let mut s = String::from(
        "use ::serde::ser::SerializeMap as _;\n\
         let mut __m = __s.serialize_map(::core::option::Option::None)?;\n",
    );
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        let r = field_ref(f);
        if f.attrs.flatten {
            s += &format!(
                "::serde::Serialize::serialize({r}, ::serde::__private::FlatMapSerializer(&mut __m))?;\n"
            );
        } else if let Some(path) = &f.attrs.with {
            s += &format!(
                "{{ struct __W<'__a>(&'__a {ty});\n\
                 impl ::serde::Serialize for __W<'_> {{\n\
                     fn serialize<__S2: ::serde::Serializer>(&self, __s2: __S2) \
                         -> ::core::result::Result<__S2::Ok, __S2::Error> {{\n\
                         {path}::serialize(self.0, __s2)\n\
                     }}\n\
                 }}\n\
                 __m.serialize_entry({key:?}, &__W({r}))?; }}\n",
                ty = f.ty,
                key = f.key(),
            );
        } else {
            s += &format!("__m.serialize_entry({:?}, {r})?;\n", f.key());
        }
    }
    s + "__m.end()\n"
}

/// Body serializing `fields` as a sequence.
fn ser_tuple_body(fields: &[Field], field_ref: &dyn Fn(&Field) -> String) -> String {
    let mut s = String::from(
        "use ::serde::ser::SerializeSeq as _;\n\
         let mut __q = __s.serialize_seq(::core::option::Option::None)?;\n",
    );
    for f in fields {
        s += &format!("__q.serialize_element({})?;\n", field_ref(f));
    }
    s + "__q.end()\n"
}

/// `{"Variant": <content>}` where `content` is an expression of a
/// `Serialize` type.
fn ser_tagged(variant: &str, content: &str) -> String {
    format!(
        "{{ use ::serde::ser::SerializeMap as _;\n\
         let mut __t = __s.serialize_map(::core::option::Option::Some(1))?;\n\
         __t.serialize_entry({variant:?}, {content})?;\n\
         __t.end() }}"
    )
}

fn ser_variant(enum_name: &str, v: &Variant) -> String {
    let path = format!("{enum_name}::{}", v.name);
    match &v.shape {
        Shape::Unit => format!("{path} => __s.serialize_str({:?}),\n", v.name),
        Shape::Tuple(fields) if fields.len() == 1 => {
            format!("{path}(__f0) => {},\n", ser_tagged(&v.name, "__f0"))
        }
        Shape::Tuple(fields) => {
            let binds: Vec<String> = (0..fields.len()).map(|i| format!("__f{i}")).collect();
            let decl: Vec<String> = fields.iter().map(|f| format!("&'__a {}", f.ty)).collect();
            format!(
                "{path}({binds}) => {{\n\
                 struct __H<'__a>({decl});\n\
                 impl ::serde::Serialize for __H<'_> {{ {SER_SIG} {{ {body} }} }}\n\
                 let __h = __H({binds});\n\
                 {tagged}\n\
                 }},\n",
                binds = binds.join(", "),
                decl = decl.join(", "),
                body = ser_tuple_body(fields, &|f| format!("self.{}", f.member)),
                tagged = ser_tagged(&v.name, "&__h"),
            )
        }
        Shape::Named(fields) => {
            let binds: Vec<&str> = fields.iter().map(|f| f.member.as_str()).collect();
            let decl: Vec<String> = fields
                .iter()
                .map(|f| format!("{}: &'__a {}", f.member, f.ty))
                .collect();
            format!(
                "{path} {{ {binds} }} => {{\n\
                 struct __H<'__a> {{ {decl} }}\n\
                 impl ::serde::Serialize for __H<'_> {{ {SER_SIG} {{ {body} }} }}\n\
                 let __h = __H {{ {binds} }};\n\
                 {tagged}\n\
                 }},\n",
                binds = binds.join(", "),
                decl = decl.join(", "),
                body = ser_named_body(fields, &|f| format!("self.{}", f.member)),
                tagged = ser_tagged(&v.name, "&__h"),
            )
        }
    }
}

fn gen_serialize(item: &Item) -> String {
    let body = match &item.body {
        Body::Struct(Shape::Unit) => "__s.serialize_unit()".to_string(),
        Body::Struct(Shape::Tuple(fields)) if fields.len() == 1 => {
            "::serde::Serialize::serialize(&self.0, __s)".to_string()
        }
        Body::Struct(Shape::Tuple(fields)) => {
            ser_tuple_body(fields, &|f| format!("&self.{}", f.member))
        }
        Body::Struct(Shape::Named(fields)) => {
            ser_named_body(fields, &|f| format!("&self.{}", f.member))
        }
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| ser_variant(&item.name, v))
                .collect();
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {} {{ {SER_SIG} {{ {body} }} }}",
        item.name
    )
}

// ---- Deserialize -------------------------------------------------------------

const DE_SIG: &str = "fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
    -> ::core::result::Result<Self, __D::Error>";

/// Statements that read a map from `__d` and evaluate to
/// `Ok(<ctor> { fields })`.
fn de_named_body(ctor: &str, fields: &[Field]) -> String {
    let flatten = fields.iter().any(|f| f.attrs.flatten);
    let keyed: Vec<&Field> = fields
        .iter()
        .filter(|f| !f.attrs.skip && !f.attrs.flatten)
        .collect();
    let mut s = String::from(
        "use ::serde::de::MapAccess as _;\n\
         let mut __m = __d.take_map()?;\n",
    );
    for (i, f) in keyed.iter().enumerate() {
        s += &format!(
            "let mut __v{i}: ::core::option::Option<{}> = ::core::option::Option::None;\n",
            f.ty
        );
    }
    // With a flattened field, unknown keys are kept (owned) for it;
    // without one they are skipped.
    let (hit, miss, hit_pat, miss_arm) = if flatten {
        s += "let mut __rest: ::std::vec::Vec<(::std::string::String, ::serde::__private::Content)> \
              = ::std::vec::Vec::new();\n";
        (
            "::core::result::Result::Ok",
            "::core::result::Result::Err(::std::string::String::from(__k))",
            "::core::result::Result::Ok",
            "::core::result::Result::Ok(_) => __m.skip_value()?,\n\
             ::core::result::Result::Err(__k) => __rest.push((__k, __m.next_content()?)),\n",
        )
    } else {
        ("", "usize::MAX", "", "_ => __m.skip_value()?,\n")
    };
    let key_arms: String = keyed
        .iter()
        .enumerate()
        .map(|(i, f)| format!("{:?} => {hit}({i}usize),\n", f.key()))
        .collect();
    s += &format!(
        "while let ::core::option::Option::Some(__i) = __m.next_key(|__k| match __k {{\n\
         {key_arms} _ => {miss},\n\
         }})? {{\n\
         match __i {{\n"
    );
    for (i, f) in keyed.iter().enumerate() {
        s += &format!(
            "{hit_pat}({i}usize) => __v{i} = ::core::option::Option::Some({}),\n",
            de_value_expr(f)
        );
    }
    s += miss_arm;
    s += "}\n}\n";
    s += &format!("::core::result::Result::Ok({ctor} {{\n");
    let mut i = 0;
    for f in fields {
        if f.attrs.skip {
            s += &format!("{}: ::core::default::Default::default(),\n", f.member);
        } else if f.attrs.flatten {
            s += &format!(
                "{}: ::serde::Deserialize::deserialize(\
                     ::serde::__private::ContentDeserializer::<__D::Error>::new(\
                         ::serde::__private::Content::Map(__rest)))?,\n",
                f.member
            );
        } else {
            let missing = if f.attrs.default {
                "::core::default::Default::default()".to_string()
            } else if f.attrs.with.is_some() {
                // The field type itself need not be `Deserialize`.
                format!(
                    "return ::core::result::Result::Err(\
                         <__D::Error as ::serde::de::Error>::custom(\"missing field `{}`\"))",
                    f.key()
                )
            } else {
                format!("::serde::__private::missing_field({:?})?", f.key())
            };
            s += &format!(
                "{}: match __v{i} {{ ::core::option::Option::Some(__x) => __x, \
                 ::core::option::Option::None => {missing} }},\n",
                f.member
            );
            i += 1;
        }
    }
    s + "})\n"
}

/// Expression reading the current map value as field `f`.
fn de_value_expr(f: &Field) -> String {
    match &f.attrs.with {
        None => "__m.next_value()?".to_string(),
        Some(path) => format!(
            "{{ struct __W({ty});\n\
             impl<'de> ::serde::Deserialize<'de> for __W {{\n\
                 fn deserialize<__D2: ::serde::Deserializer<'de>>(__d2: __D2) \
                     -> ::core::result::Result<Self, __D2::Error> {{\n\
                     {path}::deserialize(__d2).map(__W)\n\
                 }}\n\
             }}\n\
             __m.next_value::<__W>()?.0 }}",
            ty = f.ty
        ),
    }
}

/// Statements that read a sequence from `__d` and evaluate to
/// `Ok(<ctor>(fields))`.
fn de_tuple_body(ctor: &str, fields: &[Field]) -> String {
    let mut s = String::from(
        "use ::serde::de::SeqAccess as _;\n\
         let mut __q = __d.take_seq()?;\n",
    );
    for (i, f) in fields.iter().enumerate() {
        s += &format!(
            "let __v{i}: {} = match __q.next_element()? {{\n\
             ::core::option::Option::Some(__x) => __x,\n\
             ::core::option::Option::None => return ::core::result::Result::Err(\
                 <__D::Error as ::serde::de::Error>::custom(\"sequence is too short\")),\n\
             }};\n",
            f.ty
        );
    }
    s += "if __q.next_element::<::serde::de::Ignored>()?.is_some() {\n\
          return ::core::result::Result::Err(\
              <__D::Error as ::serde::de::Error>::custom(\"sequence is too long\"));\n\
          }\n";
    let args: Vec<String> = (0..fields.len()).map(|i| format!("__v{i}")).collect();
    s + &format!("::core::result::Result::Ok({ctor}({}))\n", args.join(", "))
}

/// Match arm (inside the tagged-map branch) building variant `v` from the
/// map value.
fn de_variant_arm(index: usize, enum_name: &str, v: &Variant) -> String {
    let path = format!("{enum_name}::{}", v.name);
    match &v.shape {
        Shape::Unit => format!("{index}usize => {{ __m.next_value::<()>()?; {path} }}\n"),
        Shape::Tuple(fields) if fields.len() == 1 => {
            format!("{index}usize => {path}(__m.next_value()?),\n")
        }
        Shape::Tuple(fields) => {
            let decl: Vec<&str> = fields.iter().map(|f| f.ty.as_str()).collect();
            let args: Vec<String> = (0..fields.len()).map(|i| format!("__h.{i}")).collect();
            format!(
                "{index}usize => {{\n\
                 struct __H({decl});\n\
                 impl<'de> ::serde::Deserialize<'de> for __H {{ {DE_SIG} {{ {body} }} }}\n\
                 let __h: __H = __m.next_value()?;\n\
                 {path}({args})\n\
                 }}\n",
                decl = decl.join(", "),
                body = de_tuple_body("__H", fields),
                args = args.join(", "),
            )
        }
        Shape::Named(fields) => {
            let decl: Vec<String> = fields
                .iter()
                .map(|f| format!("{}: {}", f.member, f.ty))
                .collect();
            let args: Vec<String> = fields
                .iter()
                .map(|f| format!("{m}: __h.{m}", m = f.member))
                .collect();
            format!(
                "{index}usize => {{\n\
                 struct __H {{ {decl} }}\n\
                 impl<'de> ::serde::Deserialize<'de> for __H {{ {DE_SIG} {{ {body} }} }}\n\
                 let __h: __H = __m.next_value()?;\n\
                 {path} {{ {args} }}\n\
                 }}\n",
                decl = decl.join(", "),
                body = de_named_body("__H", fields),
                args = args.join(", "),
            )
        }
    }
}

fn de_enum_body(name: &str, variants: &[Variant]) -> String {
    let unit_arms: String = variants
        .iter()
        .filter(|v| matches!(v.shape, Shape::Unit))
        .map(|v| {
            format!(
                "{:?} => ::core::result::Result::Ok({name}::{}),\n",
                v.name, v.name
            )
        })
        .collect();
    let tag_arms: String = variants
        .iter()
        .enumerate()
        .map(|(i, v)| format!("{:?} => {i}usize,\n", v.name))
        .collect();
    let value_arms: String = variants
        .iter()
        .enumerate()
        .map(|(i, v)| de_variant_arm(i, name, v))
        .collect();
    format!(
        "use ::serde::de::MapAccess as _;\n\
         let mut __d = __d;\n\
         match __d.kind()? {{\n\
         ::serde::de::Kind::Str => __d.take_str(|__k| match __k {{\n\
             {unit_arms}\
             _ => ::core::result::Result::Err(::serde::__private::unknown_variant(__k, {name:?})),\n\
         }})?,\n\
         ::serde::de::Kind::Map => {{\n\
             let mut __m = __d.take_map()?;\n\
             let __tag = __m.next_key(|__k| match __k {{\n\
                 {tag_arms}\
                 _ => usize::MAX,\n\
             }})?;\n\
             let __value = match __tag {{\n\
                 ::core::option::Option::None => return ::core::result::Result::Err(\
                     <__D::Error as ::serde::de::Error>::custom(\
                         \"expected a variant of enum {name}, found an empty map\")),\n\
                 ::core::option::Option::Some(__i) => match __i {{\n\
                     {value_arms}\
                     _ => return ::core::result::Result::Err(\
                         <__D::Error as ::serde::de::Error>::custom(\
                             \"unknown variant of enum {name}\")),\n\
                 }},\n\
             }};\n\
             if __m.next_key(|_| ())?.is_some() {{\n\
                 return ::core::result::Result::Err(\
                     <__D::Error as ::serde::de::Error>::custom(\
                         \"expected exactly one variant of enum {name}\"));\n\
             }}\n\
             ::core::result::Result::Ok(__value)\n\
         }}\n\
         _ => ::core::result::Result::Err(<__D::Error as ::serde::de::Error>::custom(\
             \"expected a string or a single-entry map for enum {name}\")),\n\
         }}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Unit) => {
            format!("__d.take_unit().map(|()| {name})")
        }
        Body::Struct(Shape::Tuple(fields)) if fields.len() == 1 => {
            format!(
                "<{} as ::serde::Deserialize>::deserialize(__d).map({name})",
                fields[0].ty
            )
        }
        Body::Struct(Shape::Tuple(fields)) => de_tuple_body(name, fields),
        Body::Struct(Shape::Named(fields)) => de_named_body(name, fields),
        Body::Enum(variants) => de_enum_body(name, variants),
    };
    format!("impl<'de> ::serde::Deserialize<'de> for {name} {{ {DE_SIG} {{ {body} }} }}")
}

fn expand(generated: String) -> TokenStream {
    generated
        .parse()
        .unwrap_or_else(|e| panic!("serde shim: generated code does not parse: {e}\n{generated}"))
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(gen_serialize(&parse(input)))
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(gen_deserialize(&parse(input)))
}
