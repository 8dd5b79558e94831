module Labels = Map.Make (String)

(* The node map plus a persistent per-label index (label -> ids of the
   nodes carrying it, every kind).  The index is maintained by the same
   primitive mutators the XUpdate layer drives, so it stays exact under
   incremental maintenance; ordpath-set order is document order. *)
type t = {
  nodes : Node.t Ordpath.Map.t;
  index : Ordpath.Set.t Labels.t;
}

let index_add index label id =
  Labels.update label
    (function
      | None -> Some (Ordpath.Set.singleton id)
      | Some ids -> Some (Ordpath.Set.add id ids))
    index

let index_remove index label id =
  Labels.update label
    (function
      | None -> None
      | Some ids ->
        let ids = Ordpath.Set.remove id ids in
        if Ordpath.Set.is_empty ids then None else Some ids)
    index

let put t (n : Node.t) =
  let index =
    match Ordpath.Map.find_opt n.id t.nodes with
    | Some old -> index_add (index_remove t.index old.Node.label old.Node.id) n.label n.id
    | None -> index_add t.index n.label n.id
  in
  { nodes = Ordpath.Map.add n.id n t.nodes; index }

let delete t id =
  match Ordpath.Map.find_opt id t.nodes with
  | None -> t
  | Some n ->
    { nodes = Ordpath.Map.remove id t.nodes;
      index = index_remove t.index n.Node.label id }

let document_node = Node.v ~id:Ordpath.document ~kind:Node.Document "/"

let empty =
  {
    nodes = Ordpath.Map.singleton Ordpath.document document_node;
    index = index_add Labels.empty document_node.Node.label Ordpath.document;
  }

let find t id = Ordpath.Map.find_opt id t.nodes
let mem t id = Ordpath.Map.mem id t.nodes
let label t id = Option.map (fun (n : Node.t) -> n.label) (find t id)
let kind t id = Option.map (fun (n : Node.t) -> n.kind) (find t id)
let size t = Ordpath.Map.cardinal t.nodes
let nodes t = List.map snd (Ordpath.Map.bindings t.nodes)
let fold f t acc = Ordpath.Map.fold (fun _ n acc -> f n acc) t.nodes acc
let iter f t = Ordpath.Map.iter (fun _ n -> f n) t.nodes
let equal a b = Ordpath.Map.equal Node.equal a.nodes b.nodes

let by_label t label =
  match Labels.find_opt label t.index with
  | None -> []
  | Some ids -> Ordpath.Set.elements ids

let labelled t label =
  List.filter_map (fun id -> find t id) (by_label t label)

let find_labelled t label =
  match Labels.find_opt label t.index with
  | None -> None
  | Some ids -> find t (Ordpath.Set.min_elt ids)

let kind_of_tree : Tree.t -> Node.kind = function
  | Tree.Element _ -> Node.Element
  | Tree.Attr _ -> Node.Attribute
  | Tree.Text _ -> Node.Text
  | Tree.Comment _ -> Node.Comment

(* Number a fragment: the root gets [id]; children get consecutive fresh
   sibling labels under it. *)
let rec graft acc id (tree : Tree.t) =
  let acc =
    put acc (Node.v ~id ~kind:(kind_of_tree tree) (Tree.name tree))
  in
  let acc, _last =
    List.fold_left
      (fun (acc, last) kid ->
        let kid_id = Ordpath.append_after id ~last in
        (graft acc kid_id kid, Some kid_id))
      (acc, None) (Tree.children tree)
  in
  acc

let of_forest trees =
  let doc, _ =
    List.fold_left
      (fun (doc, last) tree ->
        let id = Ordpath.append_after Ordpath.document ~last in
        (graft doc id tree, Some id))
      (empty, None) trees
  in
  doc

let of_tree tree = of_forest [ tree ]

let to_seq t = Seq.map snd (Ordpath.Map.to_seq t.nodes)

(* Subtree scan: all strict descendants of [id] form a contiguous run of
   keys right after [id] in the map.  The [Seq] variants let traversal
   paths consume the run without materialising an O(n) list per call. *)
let descendants_seq t id =
  let rec go seq () =
    match seq () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons ((key, node), rest) ->
      if Ordpath.equal key id then go rest ()
      else if Ordpath.is_ancestor ~ancestor:id key then
        Seq.Cons (node, go rest)
      else Seq.Nil
  in
  go (Ordpath.Map.to_seq_from id t.nodes)

let descendant_or_self_seq t id =
  match find t id with
  | None -> Seq.empty
  | Some n -> fun () -> Seq.Cons (n, descendants_seq t id)

let descendants t id = List.of_seq (descendants_seq t id)

let descendant_or_self t id =
  match find t id with
  | None -> []
  | Some n -> n :: descendants t id

(* Child steps walk the contiguous run of descendants but do not wade
   through a big subtree: past three of a child's descendants they seek
   to the first key after it, one O(log n) search.  A child step so costs
   O(children · log n) at worst, however large the subtrees below, while
   leaves and small subtrees (below three, stepping is cheaper than a
   search) never seek.  A descendant that is not a child (an orphan whose
   parent is missing) is skipped like a child's subtree — no child can
   lie inside it. *)
let children t id =
  let past c =
    match
      Ordpath.Map.find_first_opt
        (fun k -> Ordpath.compare k c > 0 && not (Ordpath.is_ancestor ~ancestor:c k))
        t.nodes
    with
    | Some (k, _) -> Ordpath.Map.to_seq_from k t.nodes
    | None -> Seq.empty
  in
  let rec next acc seq =
    match seq () with
    | Seq.Cons ((k, n), rest) when Ordpath.is_ancestor ~ancestor:id k ->
      let acc = if Ordpath.is_child ~parent:id k then n :: acc else acc in
      below acc k rest 3
    | _ -> List.rev acc
  and below acc c seq budget =
    match seq () with
    | Seq.Cons ((k, _), rest) when Ordpath.is_ancestor ~ancestor:c k ->
      if budget = 0 then next acc (past c) else below acc c rest (budget - 1)
    | node -> next acc (fun () -> node)
  in
  next [] (Seq.drop_while (fun (k, _) -> Ordpath.equal k id) (Ordpath.Map.to_seq_from id t.nodes))

let element_children t id =
  List.filter (fun (n : Node.t) -> n.kind <> Node.Attribute) (children t id)

let attributes t id =
  List.filter (fun (n : Node.t) -> n.kind = Node.Attribute) (children t id)

let last_child t id =
  match List.rev (children t id) with [] -> None | n :: _ -> Some n

let root_element t =
  List.find_opt
    (fun (n : Node.t) -> n.kind = Node.Element)
    (children t Ordpath.document)

let parent t id =
  match Ordpath.parent id with None -> None | Some pid -> find t pid

let ancestors t id =
  (* Accumulates outermost-first, so the reversal yields nearest-first. *)
  let rec up acc id =
    match Ordpath.parent id with
    | None -> List.rev acc
    | Some pid -> (match find t pid with
      | None -> List.rev acc
      | Some n -> up (n :: acc) pid)
  in
  up [] id

let ancestor_or_self t id =
  match find t id with None -> [] | Some n -> n :: ancestors t id

let siblings t id =
  match Ordpath.parent id with
  | None -> []
  | Some pid -> children t pid

let following_siblings t id =
  List.filter (fun (n : Node.t) -> Ordpath.compare n.id id > 0) (siblings t id)

let preceding_siblings t id =
  List.rev
    (List.filter (fun (n : Node.t) -> Ordpath.compare n.id id < 0)
       (siblings t id))

let following t id =
  let after_subtree (n : Node.t) =
    Ordpath.compare n.id id > 0 && not (Ordpath.is_ancestor ~ancestor:id n.id)
  in
  List.filter after_subtree (nodes t)

let preceding t id =
  let ancestor_ids =
    List.map (fun (n : Node.t) -> n.id) (ancestors t id)
  in
  let before (n : Node.t) =
    Ordpath.compare n.id id < 0
    && (not (List.exists (Ordpath.equal n.id) ancestor_ids))
    && n.kind <> Node.Document
  in
  List.rev (List.filter before (nodes t))

let is_child t ~child id = mem t child && Ordpath.is_child ~parent:id child

let is_descendant t ~descendant id =
  mem t descendant && Ordpath.is_ancestor ~ancestor:id descendant

(* XPath string value: text descendants, not descending into attribute
   nodes (their values are reachable only when the attribute itself is the
   start node). *)
let string_value t id =
  match find t id with
  | None -> ""
  | Some (start : Node.t) ->
    let buf = Buffer.create 32 in
    let rec go (n : Node.t) =
      match n.kind with
      | Node.Text -> Buffer.add_string buf n.label
      | Node.Attribute when not (Ordpath.equal n.id start.id) -> ()
      | Node.Attribute | Node.Element | Node.Document | Node.Comment ->
        List.iter go (children t n.id)
    in
    go start;
    Buffer.contents buf

let relabel t id new_label =
  match find t id with
  | None -> t
  | Some n -> put t { n with Node.label = new_label }

let add_node t (n : Node.t) = put t n

let add_subtree t ~parent ~left ~right tree =
  if not (mem t parent) then
    invalid_arg "Document.add_subtree: unknown parent";
  let id = Ordpath.child_under ~parent ~left ~right in
  (graft t id tree, id)

let append_tree t ~parent tree =
  let last = Option.map (fun (n : Node.t) -> n.id) (last_child t parent) in
  add_subtree t ~parent ~left:last ~right:None tree

let remove_subtree t id =
  if Ordpath.equal id Ordpath.document then t
  else
    Seq.fold_left
      (fun acc (n : Node.t) -> delete acc n.id)
      t
      (descendant_or_self_seq t id)

let rec to_tree t id : Tree.t option =
  match find t id with
  | None -> None
  | Some (n : Node.t) ->
    (match n.kind with
     | Node.Text -> Some (Tree.Text n.label)
     | Node.Comment -> Some (Tree.Comment n.label)
     | Node.Attribute -> Some (Tree.Attr (n.label, string_value t id))
     | Node.Element | Node.Document ->
       let kids =
         List.filter_map (fun (k : Node.t) -> to_tree t k.id) (children t id)
       in
       if n.kind = Node.Document then
         (* The document node itself has no fragment form; wrap children
            of the root element instead. *)
         (match kids with [ only ] -> Some only | _ -> None)
       else Some (Tree.Element (n.label, kids)))
