type t = {
  find : Ordpath.t -> Xmldoc.Node.t option;
  children : Ordpath.t -> Xmldoc.Node.t list;
  parent : Ordpath.t -> Xmldoc.Node.t option;
  descendants : Ordpath.t -> Xmldoc.Node.t list;
  descendant_or_self : Ordpath.t -> Xmldoc.Node.t list;
  ancestors : Ordpath.t -> Xmldoc.Node.t list;
  ancestor_or_self : Ordpath.t -> Xmldoc.Node.t list;
  following_siblings : Ordpath.t -> Xmldoc.Node.t list;
  preceding_siblings : Ordpath.t -> Xmldoc.Node.t list;
  following : Ordpath.t -> Xmldoc.Node.t list;
  preceding : Ordpath.t -> Xmldoc.Node.t list;
  attributes : Ordpath.t -> Xmldoc.Node.t list;
  string_value : Ordpath.t -> string;
  by_label : string -> Xmldoc.Node.t list;
      (* label -> all nodes carrying it, document order *)
}

let of_flat fl =
  let module F = Xmldoc.Flat in
  {
    find = F.find fl;
    children = F.children fl;
    parent = F.parent fl;
    descendants = F.descendants fl;
    descendant_or_self = F.descendant_or_self fl;
    ancestors = F.ancestors fl;
    ancestor_or_self = F.ancestor_or_self fl;
    following_siblings = F.following_siblings fl;
    preceding_siblings = F.preceding_siblings fl;
    following = F.following fl;
    preceding = F.preceding fl;
    attributes = F.attributes fl;
    string_value = F.string_value fl;
    by_label = F.labelled fl;
  }

let of_document doc =
  let module D = Xmldoc.Document in
  {
    find = D.find doc;
    children = D.children doc;
    parent = D.parent doc;
    descendants = D.descendants doc;
    descendant_or_self = D.descendant_or_self doc;
    ancestors = D.ancestors doc;
    ancestor_or_self = D.ancestor_or_self doc;
    following_siblings = D.following_siblings doc;
    preceding_siblings = D.preceding_siblings doc;
    following = D.following doc;
    preceding = D.preceding doc;
    attributes = D.attributes doc;
    string_value = D.string_value doc;
    by_label = D.labelled doc;
  }

let counting note src =
  let many f id =
    let ns = f id in
    note (List.length ns);
    ns
  in
  let one f id =
    let n = f id in
    if Option.is_some n then note 1;
    n
  in
  {
    find = one src.find;
    children = many src.children;
    parent = one src.parent;
    descendants = many src.descendants;
    descendant_or_self = many src.descendant_or_self;
    ancestors = many src.ancestors;
    ancestor_or_self = many src.ancestor_or_self;
    following_siblings = many src.following_siblings;
    preceding_siblings = many src.preceding_siblings;
    following = many src.following;
    preceding = many src.preceding;
    attributes = many src.attributes;
    string_value = src.string_value;
    by_label = many src.by_label;
  }
