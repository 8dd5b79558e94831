module D = Xmldoc.Document

(* Registry-backed totals aggregated across every lazy view; the
   per-instance stats below survive for tests and the E13 bench. *)
let m_hits =
  Obs.Metrics.counter Obs.Metrics.default "lazy_view_hits_total"
    ~help:"Memoised visibility decisions answered from the cache"

let m_misses =
  Obs.Metrics.counter Obs.Metrics.default "lazy_view_misses_total"
    ~help:"Visibility decisions computed afresh"

let m_rebase_incremental =
  Obs.Metrics.counter Obs.Metrics.default "lazy_view_rebase_incremental_total"
    ~help:"Rebases that evicted only the delta range"

let m_rebase_full =
  Obs.Metrics.counter Obs.Metrics.default "lazy_view_rebase_full_total"
    ~help:"Rebases that discarded the whole memo (Delta.All)"

let m_oracle_patched =
  Obs.Metrics.counter Obs.Metrics.default "lazy_view_oracle_patched_total"
    ~help:"Visibility oracles a rebase patched along its delta"

type stats = { mutable hits : int; mutable misses : int }

type t = {
  doc : D.t;
  perm : Perm.t;
  flat : Xmldoc.Flat.t option;
      (* frozen snapshot of [doc], when the caller maintains one; every
         read then runs on the columnar arrays and [flat_vis] instead of
         the node map and [memo] *)
  mutable flat_vis : Bytes.t option;
      (* byte-per-index visibility over [flat] (Perm.flat_visibility),
         built on first demand; a rebase along a local delta patches it
         (or keeps it, across an empty delta onto the same snapshot) --
         the per-epoch analogue of [memo] *)
  memo : (Ordpath.t, bool) Hashtbl.t;
      (* flat-less views only *)
  stats : stats;
}

let create ?flat doc perm =
  { doc; perm; flat; flat_vis = None; memo = Hashtbl.create 64;
    stats = { hits = 0; misses = 0 } }

let of_session ?flat session =
  create ?flat (Session.source session) (Session.perm session)

let flat_visibility t =
  match t.flat with
  | None -> None
  | Some fl ->
    let vis =
      match t.flat_vis with
      | Some v -> v
      | None ->
        let v = Perm.flat_visibility t.perm fl in
        t.flat_vis <- Some v;
        v
    in
    Some (fl, vis)

let oracle t = t.flat_vis

(* The snapshot index of a node the oracle shows; [None] for hidden
   nodes and for identifiers the snapshot does not hold. *)
let shown_ix fl vis id =
  match Xmldoc.Flat.find_ix fl id with
  | Some i when Bytes.unsafe_get vis i <> '\000' -> Some i
  | Some _ | None -> None

(* A shown node's view label: RESTRICTED under position-only. *)
let label_ix fl vis i =
  if Bytes.unsafe_get vis i = '\002' then View.restricted
  else Xmldoc.Flat.label_ix fl i

(* Axioms 15-17, demand-driven: a node is selected iff its parent is and
   the user holds read or position on it. *)
let rec memo_visible t id =
  match Hashtbl.find_opt t.memo id with
  | Some v ->
    t.stats.hits <- t.stats.hits + 1;
    Obs.Metrics.inc m_hits;
    v
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    Obs.Metrics.inc m_misses;
    let v =
      if Ordpath.equal id Ordpath.document then D.mem t.doc id
      else if not (D.mem t.doc id) then false
      else
        (Perm.holds t.perm Privilege.Read id
        || Perm.holds t.perm Privilege.Position id)
        &&
        match Ordpath.parent id with
        | None -> false
        | Some parent -> memo_visible t parent
    in
    Hashtbl.add t.memo id v;
    v

let visible t id =
  match flat_visibility t with
  | Some (fl, vis) -> Option.is_some (shown_ix fl vis id)
  | None -> memo_visible t id

(* Delta-aware invalidation: only memoised visibility decisions inside
   the affected range can have gone stale (the range is closed under
   descendants, and a decision depends only on the node's own permissions
   and its ancestors' — all inside the range whenever any of them is).
   The surviving entries migrate to the rebased value; the old value must
   not be used afterwards, as the table is shared, not copied.  The
   oracle follows the same argument byte by byte: a held one is patched
   along the delta into fresh bytes (readers of the old value may still
   hold the old ones), or dropped when the patch would cost a commit
   most of a full build. *)
let rebase ?flat t doc perm delta =
  match delta with
  | Delta.All ->
    Obs.Metrics.inc m_rebase_full;
    { doc; perm; flat; flat_vis = None; memo = Hashtbl.create 64;
      stats = t.stats }
  | Delta.Local roots ->
    if roots <> [] then begin
      Obs.Metrics.inc m_rebase_incremental;
      Hashtbl.filter_map_inplace
        (fun id v -> if Delta.affects delta id then None else Some v)
        t.memo
    end;
    let flat_vis =
      match (flat, t.flat, t.flat_vis) with
      | Some fl, Some prev, Some _ when fl == prev && roots = [] ->
        (* No visibility decision changed on the very same snapshot. *)
        t.flat_vis
      | Some fl, Some prev, Some pvis ->
        let patched = Perm.patch_visibility perm fl ~prev:(prev, pvis) roots in
        if Option.is_some patched then Obs.Metrics.inc m_oracle_patched;
        patched
      | _ -> None
    in
    { t with doc; perm; flat; flat_vis }

let label t id =
  if Ordpath.equal id Ordpath.document then Some "/"
  else
    match flat_visibility t with
    | Some (fl, vis) -> Option.map (label_ix fl vis) (shown_ix fl vis id)
    | None ->
      if not (memo_visible t id) then None
      else if Perm.holds t.perm Privilege.Read id then D.label t.doc id
      else Some View.restricted

let remap t (n : Xmldoc.Node.t) =
  if
    n.kind = Xmldoc.Node.Document
    || Perm.holds t.perm Privilege.Read n.id
  then n
  else { n with label = View.restricted }

let filter_map_nodes t nodes =
  List.filter_map
    (fun (n : Xmldoc.Node.t) ->
      if memo_visible t n.id then Some (remap t n) else None)
    nodes

(* The view string-value: visible text descendants with their view
   labels, not descending into attribute subtrees (mirrors
   Document.string_value). *)
let string_value t id =
  if not (memo_visible t id) then ""
  else
    match D.find t.doc id with
    | None -> ""
    | Some (start : Xmldoc.Node.t) ->
      let buf = Buffer.create 32 in
      let rec go (n : Xmldoc.Node.t) =
        if not (memo_visible t n.id) then ()
        else
          match n.kind with
          | Xmldoc.Node.Text -> Buffer.add_string buf (remap t n).label
          | Xmldoc.Node.Attribute when not (Ordpath.equal n.id start.id) -> ()
          | Xmldoc.Node.Attribute | Xmldoc.Node.Element | Xmldoc.Node.Document
          | Xmldoc.Node.Comment ->
            List.iter go (D.children t.doc n.id)
      in
      go start;
      Buffer.contents buf

(* The view over a snapshot and its oracle.  A hidden node hides its
   whole subtree (axiom 16 asks for a selected parent), so every scan
   jumps from a hidden node straight to its [subtree_end]; a shown node's
   ancestors are all shown.  Reverse axes answer nearest first, like
   {!Xmldoc.Flat}'s. *)
let flat_source fl vis : Xpath.Source.t =
  let module F = Xmldoc.Flat in
  let module N = Xmldoc.Node in
  let shown i = Bytes.unsafe_get vis i <> '\000' in
  let node i =
    let n = F.node fl i in
    if Bytes.unsafe_get vis i = '\002' then
      { n with N.label = View.restricted }
    else n
  in
  let at = shown_ix fl vis in
  let on f id = match at id with Some i -> f i | None -> [] in
  (* Shown nodes of the index range [j, stop), document order, reversed
     onto [acc]. *)
  let rec span acc j stop =
    if j >= stop then acc
    else if shown j then span (node j :: acc) (j + 1) stop
    else span acc (F.subtree_end fl j) stop
  in
  (* Shown siblings from [c] on, reversed onto [acc]. *)
  let rec siblings acc c =
    if c < 0 then acc
    else
      siblings (if shown c then node c :: acc else acc) (F.next_sibling_ix fl c)
  in
  let rec ancestors acc p =
    if p < 0 then List.rev acc else ancestors (node p :: acc) (F.parent_ix fl p)
  in
  let descendants i = List.rev (span [] (i + 1) (F.subtree_end fl i)) in
  let children i = List.rev (siblings [] (F.first_child_ix fl i)) in
  {
    Xpath.Source.find = (fun id -> Option.map node (at id));
    children = on children;
    parent =
      (fun id ->
        match at id with
        | Some i when F.parent_ix fl i >= 0 -> Some (node (F.parent_ix fl i))
        | Some _ | None -> None);
    descendants = on descendants;
    descendant_or_self = on (fun i -> node i :: descendants i);
    ancestors = on (fun i -> ancestors [] (F.parent_ix fl i));
    ancestor_or_self = on (fun i -> ancestors [ node i ] (F.parent_ix fl i));
    following_siblings =
      on (fun i -> List.rev (siblings [] (F.next_sibling_ix fl i)));
    preceding_siblings =
      on (fun i ->
          let p = F.parent_ix fl i in
          (* The shown siblings before [i], nearest first. *)
          let rec go acc c =
            if c = i then acc
            else
              let acc = if shown c then node c :: acc else acc in
              go acc (F.next_sibling_ix fl c)
          in
          if p < 0 then [] else go [] (F.first_child_ix fl p));
    following =
      on (fun i -> List.rev (span [] (F.subtree_end fl i) (F.size fl)));
    preceding =
      on (fun i ->
          (* Everything before [i] except its ancestors, whose spans are
             exactly the ones reaching past [i]. *)
          let rec go acc j =
            if j >= i then acc
            else if not (shown j) then go acc (F.subtree_end fl j)
            else if F.subtree_end fl j > i then go acc (j + 1)
            else go (node j :: acc) (j + 1)
          in
          go [] 0);
    attributes =
      on (fun i ->
          List.filter (fun (n : N.t) -> n.kind = N.Attribute) (children i));
    string_value =
      (fun id ->
        match at id with
        | None -> ""
        | Some start ->
          let buf = Buffer.create 32 in
          let stop = F.subtree_end fl start in
          let j = ref start in
          while !j < stop do
            let i = !j in
            if (not (shown i)) || (i <> start && F.kind_ix fl i = N.Attribute)
            then j := F.subtree_end fl i
            else begin
              if F.kind_ix fl i = N.Text then
                Buffer.add_string buf (label_ix fl vis i);
              incr j
            end
          done;
          Buffer.contents buf);
    (* Position-only nodes carry RESTRICTED only in the view, so that
       name needs a scan; any other name filters the snapshot's posting
       list down to nodes shown under their source label. *)
    by_label =
      Some
        (fun name ->
          if String.equal name View.restricted then
            let rec go acc j =
              if j >= F.size fl then List.rev acc
              else if not (shown j) then go acc (F.subtree_end fl j)
              else if String.equal (label_ix fl vis j) name then
                go (node j :: acc) (j + 1)
              else go acc (j + 1)
            in
            go [] 0
          else
            Array.fold_right
              (fun i acc ->
                if Bytes.unsafe_get vis i = '\001' then F.node fl i :: acc
                else acc)
              (F.by_label_ix fl name) []);
  }

let map_source t : Xpath.Source.t =
  let doc = t.doc in
  let lift f id = filter_map_nodes t (f doc id) in
  {
    Xpath.Source.find =
      (fun id ->
        match D.find doc id with
        | Some n when memo_visible t id -> Some (remap t n)
        | Some _ | None -> None);
    children = lift D.children;
    parent =
      (fun id ->
        match D.parent doc id with
        | Some p when memo_visible t p.id -> Some (remap t p)
        | Some _ | None -> None);
    descendants = lift D.descendants;
    descendant_or_self = lift D.descendant_or_self;
    ancestors = lift D.ancestors;
    ancestor_or_self = lift D.ancestor_or_self;
    following_siblings = lift D.following_siblings;
    preceding_siblings = lift D.preceding_siblings;
    following = lift D.following;
    preceding = lift D.preceding;
    attributes = lift D.attributes;
    string_value = string_value t;
    (* No index: remapping rewrites labels (RESTRICTED) on the fly, so the
       source document's label index would both miss and leak. *)
    by_label = None;
  }

let source t =
  match flat_visibility t with
  | Some (fl, vis) -> flat_source fl vis
  | None -> map_source t

let select ?vars t expr =
  Xpath.Eval.select (Xpath.Eval.env_of_source ?vars (source t)) expr

let select_str ?vars t src = select ?vars t (Xpath.Parser.parse_path src)

let doc t = t.doc
let flat t = t.flat

let materialize t = View.derive ?flat:t.flat t.doc t.perm
let probed_nodes t = Hashtbl.length t.memo
let hits t = t.stats.hits
let misses t = t.stats.misses

let reset_stats t =
  t.stats.hits <- 0;
  t.stats.misses <- 0
