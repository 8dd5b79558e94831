(* Immutable struct-of-arrays snapshot of a document in document order.

   The map-backed {!Document} store is the write-side truth: persistent,
   cheap to update incrementally, expensive to traverse (pointer-chasing
   a balanced map of boxed nodes).  [Flat.t] is the read-side twin: one
   freeze walks the document once and lays every column out in document
   order —

   - [keys]: packed binary ordpath keys ({!Ordpath.pack}), so document
     order is [String.compare] and ancestry is a string-prefix test;
   - [kinds]: one byte per node;
   - [labels]: interned ids into a shared string [pool];
   - [parent] / [first_child] / [next_sibling] / [subtree_end]: index
     arrays making every §3.2 axis an O(1) index step or a linear scan,
     and making an ordpath-contiguous subtree prune a single jump to
     [subtree_end].

   Axis answers are defined to coincide exactly with {!Document}'s — the
   differential suite in [test/test_flat.ml] checks this on random
   documents — so a flat snapshot can stand in for the map behind
   [Xpath.Source] without changing any answer.

   After a commit, [splice] builds the next snapshot from the previous
   one and the commit's delta instead of walking the whole map again. *)

module Labels = Map.Make (String)

type t = {
  count : int;
  keys : string array;          (* packed ordpath key per node *)
  kinds : Bytes.t;              (* Node.kind code per node *)
  labels : int array;           (* label pool id per node *)
  pool : string array;          (* label id -> label *)
  pool_ids : (string, int) Hashtbl.t;
      (* label -> id for the labels of the last full freeze; never
         mutated once published *)
  pool_extra : int Labels.t;    (* label -> id for labels spliced in since *)
  postings : int array array;   (* label id -> its nodes' indexes, ascending *)
  live : int;                   (* label ids with a non-empty posting list *)
  nodes : Node.t array;         (* boxed view of each node, built once *)
  parent : int array;           (* parent index, -1 at the document node *)
  first_child : int array;      (* -1 when childless *)
  next_sibling : int array;     (* -1 at a last child *)
  subtree_end : int array;      (* exclusive end of the subtree span *)
  row_bytes : int;              (* [bytes] of the keys and boxed nodes *)
  pool_bytes : int;             (* [bytes] of the pool's labels *)
}

let kind_code : Node.kind -> int = function
  | Node.Document -> 0
  | Node.Element -> 1
  | Node.Attribute -> 2
  | Node.Text -> 3
  | Node.Comment -> 4

let kind_of_code = function
  | 0 -> Node.Document
  | 1 -> Node.Element
  | 2 -> Node.Attribute
  | 3 -> Node.Text
  | _ -> Node.Comment

(* ---- Size accounting (see [bytes]) ---- *)

let word = Sys.word_size / 8
let str_bytes s = word * (2 + (String.length s / word))
let pool_entry_bytes l = word + str_bytes l

(* One row's packed key plus its boxed node (record and identifier). *)
let row_bytes_of key (id : Ordpath.t) =
  word + str_bytes key + word + (4 * word)
  + (word * (1 + List.length (Ordpath.to_components id)))

(* ---- Geometry from a stack of open rows ---- *)

(* Rows arrive in document order; the stack holds the open rows, innermost
   first.  A frame's packed key is a strict prefix of a later row's key
   iff the frame is that row's ancestor. *)
type frame = { ix : int; key : string; mutable last_child : int }

(* Closes the frames that are not ancestors of row [i] (packed key [key]):
   their subtree spans end at [i]. *)
let rec close_frames subtree_end stack ~key i =
  match stack with
  | top :: rest when not (Ordpath.is_packed_strict_prefix top.key key) ->
    subtree_end.(top.ix) <- i;
    close_frames subtree_end rest ~key i
  | stack -> stack

(* Makes row [i] the next child of [top]. *)
let add_child ~parent ~first_child ~next_sibling top i =
  parent.(i) <- top.ix;
  if top.last_child < 0 then first_child.(top.ix) <- i
  else next_sibling.(top.last_child) <- i;
  top.last_child <- i

(* ---- Builder ---- *)

(* Growable column buffers: nodes must arrive in document order with
   every parent before its children (exactly what {!Document.fold} and
   the streaming parser produce).  Geometry is derived on the fly from a
   stack of open nodes — the packed key of the top of the stack is a
   strict prefix of the current key iff the top is an ancestor. *)
module Builder = struct
  type b = {
    mutable n : int;
    mutable keys : string array;
    mutable kinds : Bytes.t;
    mutable labels : int array;
    mutable parent : int array;
    mutable first_child : int array;
    mutable next_sibling : int array;
    mutable subtree_end : int array;
    pool_ids : (string, int) Hashtbl.t;
    mutable pool_rev : string list;
    mutable pool_n : int;
    mutable stack : frame list;
  }

  let create () =
    {
      n = 0;
      keys = Array.make 64 "";
      kinds = Bytes.make 64 '\000';
      labels = Array.make 64 0;
      parent = Array.make 64 (-1);
      first_child = Array.make 64 (-1);
      next_sibling = Array.make 64 (-1);
      subtree_end = Array.make 64 0;
      pool_ids = Hashtbl.create 64;
      pool_rev = [];
      pool_n = 0;
      stack = [];
    }

  let grow b =
    let cap = Array.length b.keys in
    let cap' = cap * 2 in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    b.keys <- extend b.keys "";
    b.labels <- extend b.labels 0;
    b.parent <- extend b.parent (-1);
    b.first_child <- extend b.first_child (-1);
    b.next_sibling <- extend b.next_sibling (-1);
    b.subtree_end <- extend b.subtree_end 0;
    let k = Bytes.make cap' '\000' in
    Bytes.blit b.kinds 0 k 0 cap;
    b.kinds <- k

  let pool_id b label =
    match Hashtbl.find_opt b.pool_ids label with
    | Some i -> i
    | None ->
      let i = b.pool_n in
      Hashtbl.add b.pool_ids label i;
      b.pool_rev <- label :: b.pool_rev;
      b.pool_n <- i + 1;
      i

  let add b ~id ~kind ~label =
    if b.n = Array.length b.keys then grow b;
    let i = b.n in
    let key = Ordpath.pack id in
    b.stack <- close_frames b.subtree_end b.stack ~key i;
    (match b.stack with
     | [] -> b.parent.(i) <- -1
     | top :: _ ->
       add_child ~parent:b.parent ~first_child:b.first_child
         ~next_sibling:b.next_sibling top i);
    b.keys.(i) <- key;
    Bytes.set b.kinds i (Char.chr (kind_code kind));
    b.labels.(i) <- pool_id b label;
    b.stack <- { ix = i; key; last_child = -1 } :: b.stack;
    b.n <- i + 1

  let finish b =
    List.iter (fun fr -> b.subtree_end.(fr.ix) <- b.n) b.stack;
    b.stack <- [];
    let n = b.n in
    let pool = Array.make (max 1 b.pool_n) "" in
    List.iteri (fun i l -> pool.(b.pool_n - 1 - i) <- l) b.pool_rev;
    let trim a = Array.sub a 0 n in
    let keys = trim b.keys in
    let labels = trim b.labels in
    let kinds = Bytes.sub b.kinds 0 n in
    let nodes =
      Array.init n (fun i ->
          Node.v
            ~id:(Ordpath.unpack keys.(i))
            ~kind:(kind_of_code (Char.code (Bytes.get kinds i)))
            pool.(labels.(i)))
    in
    (* Per-label posting arrays, sized by a counting pass and filled in
       ascending index order. *)
    let postings =
      let counts = Array.make (Array.length pool) 0 in
      Array.iter (fun l -> counts.(l) <- counts.(l) + 1) labels;
      Array.map (fun c -> Array.make c 0) counts
    in
    let fill = Array.make (Array.length pool) 0 in
    Array.iteri
      (fun i l ->
        postings.(l).(fill.(l)) <- i;
        fill.(l) <- fill.(l) + 1)
      labels;
    let row_bytes = ref 0 in
    for i = 0 to n - 1 do
      row_bytes := !row_bytes + row_bytes_of keys.(i) nodes.(i).Node.id
    done;
    {
      count = n;
      keys;
      kinds;
      labels;
      pool;
      pool_ids = b.pool_ids;
      pool_extra = Labels.empty;
      postings;
      live = b.pool_n;
      nodes;
      parent = trim b.parent;
      first_child = trim b.first_child;
      next_sibling = trim b.next_sibling;
      subtree_end = trim b.subtree_end;
      row_bytes = !row_bytes;
      pool_bytes =
        Array.fold_left (fun acc l -> acc + pool_entry_bytes l) 0 pool;
    }
end

let of_document doc =
  let b = Builder.create () in
  Document.iter
    (fun (n : Node.t) -> Builder.add b ~id:n.id ~kind:n.kind ~label:n.label)
    doc;
  Builder.finish b

let to_document t =
  let doc = ref Document.empty in
  Array.iter (fun n -> doc := Document.add_node !doc n) t.nodes;
  !doc

(* ---- Accessors ---- *)

let size t = t.count
let node t i = t.nodes.(i)
let id t i = (t.nodes.(i) : Node.t).id
let kind_ix t i = kind_of_code (Char.code (Bytes.get t.kinds i))
let label_ix t i = t.pool.(t.labels.(i))
let key t i = t.keys.(i)
let parent_ix t i = t.parent.(i)
let first_child_ix t i = t.first_child.(i)
let next_sibling_ix t i = t.next_sibling.(i)
let subtree_end t i = t.subtree_end.(i)
let pool_size t = Array.length t.pool
let pool_label t lid = t.pool.(lid)

(* Binary search over the packed key column: branchless-comparison
   [String.compare] per probe, no ordpath list walking. *)
let find_key t key =
  let lo = ref 0 and hi = ref (t.count - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Ordpath.compare_packed t.keys.(mid) key in
    if c = 0 then begin
      res := mid;
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !res

(* First index whose key is [>= key] (= [count] when none). *)
let lower_bound t key =
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Ordpath.compare_packed t.keys.(mid) key < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let find_ix t ordpath =
  let i = find_key t (Ordpath.pack ordpath) in
  if i < 0 then None else Some i

(* ---- Splice ---- *)

(* First index in [lo, hi) whose key does not start with [prefix], when
   the keys in [lo, hi) that do form a leading run (a subtree span). *)
let end_of_prefix keys prefix lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Ordpath.is_packed_prefix prefix keys.(mid) then lo := mid + 1
    else hi := mid
  done;
  !lo

(* The snapshot of [doc] built from [t], the snapshot of a document that
   agrees with [doc] outside the subtrees of [roots].  Each root's subtree
   is a contiguous row range in both; the rows between ranges ("gaps")
   keep their key, kind, label id and boxed node and only have their index
   columns shifted, while the rows inside a range are read from [doc].
   Index entries that pointed into a replaced range are exactly these,
   and are recomputed:

   - [subtree_end] of the ranges' ancestors, by a prefix search over the
     new keys;
   - the child chain of each range's parent [p] (the nearest node above
     the root, which lies in a gap): the child before the range now links
     to the range's top rows, and the last of those to the child after.

   Pool ids of gap rows stay; new labels get fresh ids, so labels that
   lose their last row stay in the pool, dead, until a full freeze. *)
let splice_ranges t doc roots =
  let k = Array.length roots in
  let rkeys = Array.map Ordpath.pack roots in
  let a = Array.make k 0 and b = Array.make k 0 in
  Array.iteri
    (fun j rk ->
      a.(j) <- lower_bound t rk;
      b.(j) <- end_of_prefix t.keys rk a.(j) t.count)
    rkeys;
  let fresh =
    Array.map
      (fun r ->
        let below = Document.descendants_seq doc r in
        Array.of_seq
          (match Document.find doc r with
           | Some n -> Seq.cons n below
           | None -> below))
      roots
  in
  (* cum.(j): net rows added by the ranges before range j. *)
  let cum = Array.make (k + 1) 0 in
  for j = 0 to k - 1 do
    cum.(j + 1) <- cum.(j) + Array.length fresh.(j) - (b.(j) - a.(j))
  done;
  let n = t.count + cum.(k) in
  (* Ranges ending at or before old row [x]. *)
  let ranges_before x =
    let lo = ref 0 and hi = ref k in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if b.(mid) <= x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let shift x = if x < 0 then x else x + cum.(ranges_before x) in
  (* An exclusive end [e] of a node above no range: the ranges before it
     all end before [e] (one starting at [e] lies after the subtree). *)
  let shift_end e = e + cum.(ranges_before (e - 1)) in
  (* Labels new to the pool, with their ids. *)
  let base_pool = Array.length t.pool in
  let added = ref [] and extra = ref t.pool_extra in
  let pool_n = ref base_pool and pool_bytes = ref t.pool_bytes in
  Array.iter
    (Array.iter (fun (nd : Node.t) ->
         if Hashtbl.mem t.pool_ids nd.label || Labels.mem nd.label !extra then ()
         else begin
           extra := Labels.add nd.label !pool_n !extra;
           added := nd.label :: !added;
           pool_bytes := !pool_bytes + pool_entry_bytes nd.label;
           incr pool_n
         end))
    fresh;
  let pool =
    if !added = [] then t.pool
    else Array.append t.pool (Array.of_list (List.rev !added))
  in
  let lookup label =
    match Hashtbl.find_opt t.pool_ids label with
    | Some id -> id
    | None -> Labels.find label !extra
  in
  let keys = Array.make n "" in
  let kinds = Bytes.create n in
  let labels = Array.make n 0 in
  let nodes = Array.make n t.nodes.(0) in
  let parent = Array.make n (-1) in
  let first_child = Array.make n (-1) in
  let next_sibling = Array.make n (-1) in
  let subtree_end = Array.make n 0 in
  let row_bytes = ref t.row_bytes in
  let range_parent = Array.make k 0 and last_top = Array.make k (-1) in
  (* Fresh rows per label id, descending. *)
  let fresh_rows : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  (* Gap [j]: the old rows between range [j - 1] and range [j]. *)
  let copy_gap j =
    let lo = if j = 0 then 0 else b.(j - 1) in
    let hi = if j = k then t.count else a.(j) in
    let d = cum.(j) and len = hi - lo in
    if len > 0 then begin
      let dst = lo + d in
      Array.blit t.keys lo keys dst len;
      Array.blit t.nodes lo nodes dst len;
      Array.blit t.labels lo labels dst len;
      Bytes.blit t.kinds lo kinds dst len;
      for x = lo to hi - 1 do
        let y = x + d in
        parent.(y) <- shift t.parent.(x);
        first_child.(y) <- shift t.first_child.(x);
        next_sibling.(y) <- shift t.next_sibling.(x);
        subtree_end.(y) <- shift_end t.subtree_end.(x)
      done
    end
  in
  let fill_range j =
    (* The range's parent: the nearest gap row above the root. *)
    let p =
      let x = ref (a.(j) - 1) in
      while not (Ordpath.is_packed_strict_prefix t.keys.(!x) rkeys.(j)) do
        x := t.parent.(!x)
      done;
      shift !x
    in
    range_parent.(j) <- p;
    for x = a.(j) to b.(j) - 1 do
      row_bytes := !row_bytes - row_bytes_of t.keys.(x) t.nodes.(x).Node.id
    done;
    let base = a.(j) + cum.(j) in
    let stop = base + Array.length fresh.(j) in
    (* [p]'s child before the range, whose sibling link the range's first
       top row takes over (or [p]'s first-child link, if none). *)
    let prev =
      if base - 1 = p then -1
      else begin
        let x = ref (base - 1) in
        while parent.(!x) <> p do x := parent.(!x) done;
        !x
      end
    in
    (* [p] stays open below the range's rows, so they link in as in
       [Builder.add]; its own span is recomputed with the ancestors'. *)
    let top = { ix = p; key = keys.(p); last_child = prev } in
    let stack = ref [ top ] in
    Array.iteri
      (fun q (nd : Node.t) ->
        let i = base + q in
        let key = Ordpath.pack nd.id in
        stack := close_frames subtree_end !stack ~key i;
        add_child ~parent ~first_child ~next_sibling (List.hd !stack) i;
        let lid = lookup nd.label in
        keys.(i) <- key;
        Bytes.set kinds i (Char.chr (kind_code nd.kind));
        labels.(i) <- lid;
        nodes.(i) <- Node.v ~id:nd.id ~kind:nd.kind pool.(lid);
        row_bytes := !row_bytes + row_bytes_of key nd.id;
        Hashtbl.replace fresh_rows lid
          (i :: Option.value ~default:[] (Hashtbl.find_opt fresh_rows lid));
        stack := { ix = i; key; last_child = -1 } :: !stack)
      fresh.(j);
    List.iter (fun fr -> if fr != top then subtree_end.(fr.ix) <- stop) !stack;
    last_top.(j) <- top.last_child
  in
  for j = 0 to k - 1 do
    copy_gap j;
    fill_range j
  done;
  copy_gap k;
  (* Ancestors of the ranges: their spans grew or shrank. *)
  let fixed = Hashtbl.create 16 in
  Array.iter
    (fun p ->
      let x = ref p in
      while !x >= 0 && not (Hashtbl.mem fixed !x) do
        Hashtbl.add fixed !x ();
        subtree_end.(!x) <- end_of_prefix keys keys.(!x) (!x + 1) n;
        x := parent.(!x)
      done)
    range_parent;
  (* The child chains through the ranges: the last child of [p] up to a
     range's end links to the first child after it. *)
  for j = 0 to k - 1 do
    let p = range_parent.(j) in
    let stop = a.(j) + cum.(j) + Array.length fresh.(j) in
    let next = if stop < subtree_end.(p) then stop else -1 in
    if last_top.(j) < 0 then first_child.(p) <- next
    else next_sibling.(last_top.(j)) <- next
  done;
  (* Posting lists: a list whose rows all precede the first range is
     shared; the others drop replaced rows, shift and merge fresh ones. *)
  let postings = Array.make (Array.length pool) [||] in
  Array.blit t.postings 0 postings 0 base_pool;
  let live = ref t.live in
  let rebuild lid =
    let old = if lid < base_pool then t.postings.(lid) else [||] in
    let fresh = List.rev (Option.value ~default:[] (Hashtbl.find_opt fresh_rows lid)) in
    let out = Array.make (Array.length old + List.length fresh) 0 in
    let len = ref 0 and fresh = ref fresh in
    let push x =
      out.(!len) <- x;
      incr len
    in
    Array.iter
      (fun x ->
        let c = ranges_before x in
        if not (c < k && a.(c) <= x) then begin
          let x = x + cum.(c) in
          let rec flush () =
            match !fresh with
            | f :: rest when f < x ->
              push f;
              fresh := rest;
              flush ()
            | _ -> ()
          in
          flush ();
          push x
        end)
      old;
    List.iter push !fresh;
    if Array.length old = 0 && !len > 0 then incr live
    else if Array.length old > 0 && !len = 0 then decr live;
    postings.(lid) <- (if !len = Array.length out then out else Array.sub out 0 !len)
  in
  let reaches_ranges lid =
    lid < base_pool
    &&
    let ps = t.postings.(lid) in
    Array.length ps > 0 && ps.(Array.length ps - 1) >= a.(0)
  in
  for lid = 0 to base_pool - 1 do
    if reaches_ranges lid then rebuild lid
  done;
  Hashtbl.iter
    (fun lid _ -> if not (reaches_ranges lid) then rebuild lid)
    fresh_rows;
  {
    count = n;
    keys;
    kinds;
    labels;
    pool;
    pool_ids = t.pool_ids;
    pool_extra = !extra;
    postings;
    live = !live;
    nodes;
    parent;
    first_child;
    next_sibling;
    subtree_end;
    row_bytes = !row_bytes;
    pool_bytes = !pool_bytes;
  }

let splice t doc ~roots =
  if List.exists (Ordpath.equal Ordpath.document) roots || t.count = 0 then
    of_document doc
  else
    match Ordpath.outermost roots with
    | [] -> t
    | roots ->
      let t' = splice_ranges t doc (Array.of_list roots) in
      (* Dead labels stay in the pool until a full freeze; bound them. *)
      if Array.length t'.pool > (2 * t'.live) + 64 then of_document doc else t'

let find t ordpath = Option.map (node t) (find_ix t ordpath)
let mem t ordpath = find_key t (Ordpath.pack ordpath) >= 0
let label t ordpath = Option.map (label_ix t) (find_ix t ordpath)
let kind t ordpath = Option.map (kind_ix t) (find_ix t ordpath)

let fold f t acc =
  let acc = ref acc in
  for i = 0 to t.count - 1 do
    acc := f t.nodes.(i) !acc
  done;
  !acc

let iter f t = Array.iter f t.nodes
let nodes t = Array.to_list t.nodes

let to_seq t =
  let rec go i () =
    if i >= t.count then Seq.Nil else Seq.Cons (t.nodes.(i), go (i + 1))
  in
  go 0

(* ---- Per-label index ---- *)

let pool_id t label =
  match Hashtbl.find_opt t.pool_ids label with
  | Some _ as id -> id
  | None -> Labels.find_opt label t.pool_extra

let by_label_ix t label =
  match pool_id t label with
  | Some lid -> t.postings.(lid)
  | None -> [||]

let by_label t label =
  Array.to_list (Array.map (id t) (by_label_ix t label))

let labelled t label =
  Array.to_list (Array.map (node t) (by_label_ix t label))

let find_labelled t label =
  let ixs = by_label_ix t label in
  if Array.length ixs = 0 then None else Some (node t ixs.(0))

(* ---- Axes (answers coincide with {!Document}'s) ---- *)

let children_ix t i =
  let rec go acc c = if c < 0 then List.rev acc else go (c :: acc) (t.next_sibling.(c)) in
  go [] t.first_child.(i)

let children t ordpath =
  match find_ix t ordpath with
  | None -> []
  | Some i -> List.map (node t) (children_ix t i)

let element_children t ordpath =
  List.filter (fun (n : Node.t) -> n.kind <> Node.Attribute)
    (children t ordpath)

let attributes t ordpath =
  List.filter (fun (n : Node.t) -> n.kind = Node.Attribute)
    (children t ordpath)

let last_child t ordpath =
  match find_ix t ordpath with
  | None -> None
  | Some i ->
    let rec go c =
      if c < 0 then None
      else if t.next_sibling.(c) < 0 then Some (node t c)
      else go t.next_sibling.(c)
    in
    go t.first_child.(i)

let descendants t ordpath =
  match find_ix t ordpath with
  | None -> []
  | Some i ->
    let stop = t.subtree_end.(i) in
    let rec go acc j = if j >= stop then List.rev acc else go (t.nodes.(j) :: acc) (j + 1) in
    go [] (i + 1)

let descendant_or_self t ordpath =
  match find_ix t ordpath with
  | None -> []
  | Some i ->
    let stop = t.subtree_end.(i) in
    let rec go acc j = if j >= stop then List.rev acc else go (t.nodes.(j) :: acc) (j + 1) in
    go [] i

(* Nearest first, like {!Document.ancestors}. *)
let ancestors_ix t i =
  let rec go acc p = if p < 0 then List.rev acc else go (p :: acc) t.parent.(p) in
  go [] t.parent.(i)

let ancestors t ordpath =
  match find_ix t ordpath with
  | Some i -> List.map (node t) (ancestors_ix t i)
  | None ->
    (* Mirror {!Document.ancestors} on an unknown identifier: step to the
       ordpath parent; if that node exists, its chain answers. *)
    (match Ordpath.parent ordpath with
     | None -> []
     | Some pid ->
       (match find_ix t pid with
        | None -> []
        | Some j -> node t j :: List.map (node t) (ancestors_ix t j)))

let ancestor_or_self t ordpath =
  match find_ix t ordpath with
  | None -> []
  | Some i -> node t i :: List.map (node t) (ancestors_ix t i)

let siblings_fallback t ordpath =
  (* Unknown identifier: answer from the would-be parent's children, the
     way the map-backed store does. *)
  match Ordpath.parent ordpath with
  | None -> []
  | Some pid -> children t pid

let following_siblings t ordpath =
  match find_ix t ordpath with
  | Some i ->
    let rec go acc c = if c < 0 then List.rev acc else go (t.nodes.(c) :: acc) t.next_sibling.(c) in
    go [] t.next_sibling.(i)
  | None ->
    List.filter (fun (n : Node.t) -> Ordpath.compare n.id ordpath > 0)
      (siblings_fallback t ordpath)

let preceding_siblings t ordpath =
  match find_ix t ordpath with
  | Some i ->
    let p = t.parent.(i) in
    if p < 0 then []
    else begin
      let rec go acc c =
        if c = i then acc else go (t.nodes.(c) :: acc) t.next_sibling.(c)
      in
      go [] t.first_child.(p)
    end
  | None ->
    List.rev
      (List.filter (fun (n : Node.t) -> Ordpath.compare n.id ordpath < 0)
         (siblings_fallback t ordpath))

let following t ordpath =
  match find_ix t ordpath with
  | Some i ->
    let rec go acc j =
      if j >= t.count then List.rev acc else go (t.nodes.(j) :: acc) (j + 1)
    in
    go [] t.subtree_end.(i)
  | None ->
    let key = Ordpath.pack ordpath in
    let start = lower_bound t key in
    let rec go acc j =
      if j >= t.count then List.rev acc
      else if Ordpath.is_packed_prefix key t.keys.(j) then go acc (j + 1)
      else go (t.nodes.(j) :: acc) (j + 1)
    in
    go [] start

let preceding t ordpath =
  match find_ix t ordpath with
  | Some i ->
    let rec mark acc p = if p < 0 then acc else mark (p :: acc) t.parent.(p) in
    let ancs = mark [] t.parent.(i) in
    let is_anc j = List.mem j ancs in
    let rec go acc j =
      if j >= i then acc
      else
        let acc =
          if is_anc j || kind_ix t j = Node.Document then acc
          else t.nodes.(j) :: acc
        in
        go acc (j + 1)
    in
    go [] 0
  | None ->
    (* The exclusion set is exactly what {!ancestors} answers on this
       unknown identifier (the map-backed walk stops at the first missing
       parent, so deeper strays exclude fewer nodes than true ordpath
       ancestry would). *)
    let key = Ordpath.pack ordpath in
    let stop = lower_bound t key in
    let anc = List.map (fun (n : Node.t) -> n.id) (ancestors t ordpath) in
    let rec go acc j =
      if j >= stop then acc
      else
        let acc =
          if
            List.exists (Ordpath.equal t.nodes.(j).Node.id) anc
            || kind_ix t j = Node.Document
          then acc
          else t.nodes.(j) :: acc
        in
        go acc (j + 1)
    in
    go [] 0

let is_child t ~child ordpath =
  mem t child && Ordpath.is_child ~parent:ordpath child

let is_descendant t ~descendant ordpath =
  mem t descendant && Ordpath.is_ancestor ~ancestor:ordpath descendant

let root_element t =
  let rec go c =
    if c < 0 then None
    else if kind_ix t c = Node.Element then Some (node t c)
    else go t.next_sibling.(c)
  in
  if t.count = 0 then None else go t.first_child.(0)

let parent t ordpath =
  match find_ix t ordpath with
  | Some i -> if t.parent.(i) < 0 then None else Some (node t t.parent.(i))
  | None ->
    (match Ordpath.parent ordpath with
     | None -> None
     | Some pid -> find t pid)

(* XPath string value over the subtree span: attribute subtrees other
   than the start node are jumped over via [subtree_end]. *)
let string_value t ordpath =
  match find_ix t ordpath with
  | None -> ""
  | Some start ->
    let buf = Buffer.create 32 in
    let stop = t.subtree_end.(start) in
    let j = ref start in
    while !j < stop do
      let i = !j in
      if i <> start && kind_ix t i = Node.Attribute then j := t.subtree_end.(i)
      else begin
        if kind_ix t i = Node.Text then Buffer.add_string buf (label_ix t i);
        incr j
      end
    done;
    Buffer.contents buf

(* ---- Size accounting ---- *)

let bytes t = t.row_bytes + t.pool_bytes + t.count + (5 * word * (1 + t.count))

let bytes_per_node t = if t.count = 0 then 0. else float_of_int (bytes t) /. float_of_int t.count
