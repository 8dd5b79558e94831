let m_oracle_patched =
  Obs.Metrics.counter Obs.Metrics.default "lazy_view_oracle_patched_total"
    ~help:"Visibility oracles a rebase patched along its delta"

type t = {
  perm : Perm.t;
  flat : Xmldoc.Flat.t;  (* the frozen source every read runs on *)
  mutable flat_vis : Bytes.t option;
      (* byte-per-index visibility over [flat] (Perm.flat_visibility),
         built on first demand; a rebase along a local delta patches it
         (or keeps it, across an empty delta onto the same snapshot) *)
}

let create flat perm = { perm; flat; flat_vis = None }
let of_session flat session = create flat (Session.perm session)

let flat_visibility t =
  let vis =
    match t.flat_vis with
    | Some v -> v
    | None ->
      let v = Perm.flat_visibility t.perm t.flat in
      t.flat_vis <- Some v;
      v
  in
  (t.flat, vis)

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

let visible t id =
  let fl, vis = flat_visibility t in
  Option.is_some (shown_ix fl vis id)

(* A byte depends only on the node's own read and position decisions and
   on its parent's byte (axioms 15-17), so a rebase patches a held
   oracle along the delta into fresh bytes -- the old value keeps its
   own, and stays usable -- or drops it when the patch would cost a
   commit most of a full build. *)
let rebase t flat perm delta =
  let flat_vis =
    match (delta, t.flat_vis) with
    | Delta.Local [], Some _ when flat == t.flat ->
      (* No visibility decision changed on the very same snapshot. *)
      t.flat_vis
    | Delta.Local roots, Some pvis ->
      let patched =
        Perm.patch_visibility perm flat ~prev:(t.flat, pvis) roots
      in
      if Option.is_some patched then Obs.Metrics.inc m_oracle_patched;
      patched
    | Delta.All, _ | Delta.Local _, None -> None
  in
  { perm; flat; flat_vis }

let label t id =
  if Ordpath.equal id Ordpath.document then Some "/"
  else
    let fl, vis = flat_visibility t in
    Option.map (label_ix fl vis) (shown_ix fl vis id)

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

let source t =
  let fl, vis = flat_visibility t in
  flat_source fl vis

let select ?vars t expr =
  Xpath.Eval.select (Xpath.Eval.env_of_source ?vars (source t)) expr

let select_str ?vars t src = select ?vars t (Xpath.Parser.parse_path src)

let flat t = t.flat

(* Retired with the memo: kept so that existing readers of the counters
   still build. *)
let hits _ = 0
let misses _ = 0
let reset_stats _ = ()
