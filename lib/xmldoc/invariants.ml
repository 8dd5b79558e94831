(* The checks are split by what they read, so that [check_scoped] can run
   exactly the ones a local change can affect: the document node's own
   facts, the per-node facts (each reads only the node, its parent and
   its children), and the document-level text rule.  A node's identifier
   is rendered only once there is something to report. *)

let document_node doc complain =
  match Document.find doc Ordpath.document with
  | None -> complain "the document node is missing"
  | Some n ->
    if n.Node.kind <> Node.Document then complain "the document node has a wrong kind";
    if n.Node.label <> "/" then complain "the document node is mislabelled"

let check_node doc complain (n : Node.t) =
  let id () = Ordpath.to_string n.id in
  (* Identifiers survive a components round-trip iff well-formed. *)
  (match Ordpath.of_components (Ordpath.to_components n.id) with
   | exception Invalid_argument _ ->
     complain (Printf.sprintf "node %s: malformed identifier" (id ()))
   | _ -> ());
  (match n.kind with
   | Node.Document ->
     if not (Ordpath.equal n.id Ordpath.document) then
       complain (Printf.sprintf "node %s: non-root node of document kind" (id ()))
   | Node.Element | Node.Attribute | Node.Text | Node.Comment ->
     (match Ordpath.parent n.id with
      | None ->
        complain
          (Printf.sprintf "node %s: non-document node without a parent" (id ()))
      | Some pid ->
        if not (Document.mem doc pid) then
          complain
            (Printf.sprintf "node %s: parent %s missing" (id ())
               (Ordpath.to_string pid))));
  match n.kind with
  | Node.Text | Node.Comment ->
    if Document.children doc n.id <> [] then
      complain
        (Printf.sprintf "node %s: %s node with children" (id ())
           (Node.kind_to_string n.kind))
  | Node.Attribute ->
    List.iter
      (fun (k : Node.t) ->
        if k.kind <> Node.Text then
          complain
            (Printf.sprintf "node %s: attribute with non-text child %s" (id ())
               (Ordpath.to_string k.id)))
      (Document.children doc n.id)
  | Node.Element | Node.Document -> ()

let document_level_text doc complain =
  List.iter
    (fun (n : Node.t) ->
      if n.kind = Node.Text then
        complain
          (Printf.sprintf "document-level text node %s" (Ordpath.to_string n.id)))
    (Document.children doc Ordpath.document)

let collect f =
  let problems = ref [] in
  f (fun s -> problems := s :: !problems);
  List.rev !problems

let check doc =
  collect (fun complain ->
      document_node doc complain;
      Document.iter (check_node doc complain) doc;
      document_level_text doc complain)

(* A change confined to the subtrees of [roots] can only break the
   per-node facts of the nodes inside them and of each root's parent
   (whose child list changed); every other node reads the same node,
   parent and children as before.  Visiting those nodes in document order
   between the same header and trailer reproduces [check]'s list. *)
let check_scoped doc ~roots =
  if List.exists (Ordpath.equal Ordpath.document) roots then check doc
  else
    let roots = Ordpath.outermost roots in
    let parents =
      List.sort_uniq Ordpath.compare
        (Ordpath.document :: List.filter_map Ordpath.parent roots)
    in
    collect (fun complain ->
        document_node doc complain;
        let visit id = Option.iter (check_node doc complain) (Document.find doc id) in
        (* Every parent precedes its root, so each is visited before the
           first subtree that follows it and none is left at the end. *)
        let rec visit_before bound = function
          | p :: rest when Ordpath.compare p bound < 0 ->
            visit p;
            visit_before bound rest
          | pending -> pending
        in
        ignore
          (List.fold_left
             (fun pending r ->
               let pending = visit_before r pending in
               visit r;
               Seq.iter (check_node doc complain) (Document.descendants_seq doc r);
               pending)
             parents roots);
        document_level_text doc complain)

let check_document doc =
  let base = check doc in
  let elements =
    List.filter
      (fun (n : Node.t) -> n.kind = Node.Element)
      (Document.children doc Ordpath.document)
  in
  if List.length elements > 1 then
    base @ [ "more than one document-level element" ]
  else base

let is_valid doc = check doc = []
