module D = Xmldoc.Document
module F = Xmldoc.Flat
module Node = Xmldoc.Node

let recount_bytes fl =
  let word = Sys.word_size / 8 in
  let str s = word * (2 + (String.length s / word)) in
  let n = F.size fl in
  let total = ref (n + (5 * word * (1 + n))) in
  for i = 0 to n - 1 do
    total :=
      !total + word + str (F.key fl i) + (5 * word)
      + (word * (1 + List.length (Ordpath.to_components (F.id fl i))))
  done;
  for lid = 0 to F.pool_size fl - 1 do
    total := !total + word + str (F.pool_label fl lid)
  done;
  !total

let render (n : Node.t) =
  Printf.sprintf "%s:%s:%s" (Node.kind_to_string n.kind) (Ordpath.to_string n.id)
    n.label

let check what doc ~expected ~got =
  let fail fmt = Printf.ksprintf (fun s -> failwith (what ^ ": " ^ s)) fmt in
  if F.size expected <> F.size got then
    fail "size %d, expected %d" (F.size got) (F.size expected);
  for i = 0 to F.size got - 1 do
    let col name f =
      if f expected i <> f got i then
        fail "%s differs at row %d (%s)" name i (render (F.node expected i))
    in
    col "key" F.key;
    col "kind" F.kind_ix;
    col "label" F.label_ix;
    col "parent" F.parent_ix;
    col "first_child" F.first_child_ix;
    col "next_sibling" F.next_sibling_ix;
    col "subtree_end" F.subtree_end;
    let n = F.node got i in
    if not (Node.equal (F.node expected i) n) then
      fail "node differs at row %d: %s" i (render n);
    if n.label != F.label_ix got i then
      fail "row %d's node does not carry the pool's label" i;
    match D.find doc n.id with
    | Some m when m == n -> fail "row %d reuses the store's node record" i
    | _ -> ()
  done;
  let labels fl = List.init (F.pool_size fl) (F.pool_label fl) in
  List.iter
    (fun l ->
      if F.by_label_ix expected l <> F.by_label_ix got l then
        fail "postings of %S differ" l)
    (List.sort_uniq String.compare (labels expected @ labels got));
  if F.bytes got <> recount_bytes got then
    fail "bytes %d, recounted %d" (F.bytes got) (recount_bytes got)

let first_difference a b =
  let n = min (Bytes.length a) (Bytes.length b) in
  let rec go i = if i < n && Bytes.get a i = Bytes.get b i then go (i + 1) else i in
  go 0

(* Entry for entry: the same nodes in the same order, each decided by
   the same rule. *)
let check_decisions what ~user ~expected got =
  List.iter
    (fun privilege ->
      let rec go i = function
        | [], [] -> ()
        | (id, (r : Core.Rule.t)) :: rest, (id', (r' : Core.Rule.t)) :: rest'
          when Ordpath.equal id id' && Core.Rule.equal r r' ->
          go (i + 1) (rest, rest')
        | want, held ->
          let show = function
            | (id, r) :: _ ->
              Format.asprintf "%s by %a" (Ordpath.to_string id) Core.Rule.pp r
            | [] -> "nothing"
          in
          failwith
            (Printf.sprintf "%s: %s's %s store differs from Perm.compute at \
                             entry %d: holds %s, expected %s"
               what user (Core.Privilege.to_string privilege) i (show held)
               (show want))
      in
      go 0
        ( Core.Perm.decisions expected privilege,
          Core.Perm.decisions got privilege ))
    Core.Privilege.all

let check_served what serve =
  let source = Core.Serve.source serve in
  let policy = Core.Serve.policy serve in
  let expected = F.of_document source in
  (* One compute per class: users of one profile share their stores. *)
  let computed = Hashtbl.create 8 in
  List.iter
    (fun user ->
      let lv = Core.Serve.lazy_view serve ~user in
      let got = Core.Lazy_view.flat lv in
      check (Printf.sprintf "%s, %s's snapshot" what user) source ~expected ~got;
      let perm = Core.Session.perm (Core.Serve.session serve ~user) in
      let profile = Core.Perm.profile policy ~user in
      let want =
        match Hashtbl.find_opt computed profile with
        | Some want -> want
        | None ->
          let want = Core.Perm.compute policy expected ~user in
          Hashtbl.add computed profile want;
          want
      in
      check_decisions what ~user ~expected:want perm;
      let differ name held want =
        if not (Bytes.equal held want) then begin
          let i = first_difference held want in
          failwith
            (Printf.sprintf "%s: %s's %s (%d vs %d rows) at row %d%s" what user
               name (Bytes.length held) (Bytes.length want) i
               (if i < F.size got then " (" ^ render (F.node got i) ^ ")" else ""))
        end
      in
      (match Core.Lazy_view.oracle lv with
       | None -> ()
       | Some held ->
         differ "held oracle differs from a rebuild" held
           (Core.Perm.flat_visibility perm got));
      differ "rebuilt oracle differs from the map derivation"
        (Core.Perm.flat_visibility perm got)
        (View_oracle.visibility got source perm);
      let gauge =
        Obs.Metrics.gauge_value (Obs.Metrics.gauge Obs.Metrics.default "flat_bytes")
      in
      if gauge <> float (F.bytes got) then
        failwith
          (Printf.sprintf "%s: flat_bytes gauge %.0f, published snapshot %d" what
             gauge (F.bytes got)))
    (Core.Serve.users serve)
