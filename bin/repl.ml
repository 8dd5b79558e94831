(* Interactive session shell: the closest analogue of driving the paper's
   Prolog prototype from a toplevel.  Reads commands from a channel, keeps
   the current session (user, source, view) as state, prints results. *)

let help_text =
  {|commands:
  help                        this text
  whoami                      current user and view size
  login <user>                switch user (same database and policy)
  view [tree|xml|facts]       print the current view
  query <xpath>               evaluate on the view
  rename <path> <label>       xupdate:rename through the secure path
  update <path> <label>       xupdate:update through the secure path
  remove <path>               xupdate:remove through the secure path
  append <path> <xml>         xupdate:append a fragment
  insert-before <path> <xml>  insert a fragment before the target
  insert-after <path> <xml>   insert a fragment after the target
  explain <path>              why are these source nodes (in)visible?
  compare                     availability/leakage vs the §2 baselines
  save <file>                 write the current source database
  quit                        leave|}

(* First token, rest of line; quotes group tokens with spaces. *)
let split_command line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    (String.sub line 0 i,
     String.trim (String.sub line (i + 1) (String.length line - i - 1)))

let split_arg rest =
  let rest = String.trim rest in
  if rest = "" then ("", "")
  else if rest.[0] = '"' then begin
    match String.index_from_opt rest 1 '"' with
    | None -> (rest, "")
    | Some stop ->
      (String.sub rest 1 (stop - 1),
       String.trim (String.sub rest (stop + 1) (String.length rest - stop - 1)))
  end
  else
    match String.index_opt rest ' ' with
    | None -> (rest, "")
    | Some i ->
      (String.sub rest 0 i,
       String.trim (String.sub rest (i + 1) (String.length rest - i - 1)))

let print_report report =
  Format.printf "%a@." Core.Secure_update.pp_report report

(* Every repl write is a single-op tolerant transaction (§4.4.2: denied
   targets stay in the report); failures re-raise so the loop's inline
   error handling keeps its historical behaviour. *)
let run_secure session op =
  match Core.Txn.commit ~on_denial:`Tolerate session [ op ] with
  | Ok { Core.Txn.session = session'; reports = [ report ]; _ } ->
    print_report report;
    session'
  | Ok _ -> session
  | Error (Core.Txn.Failed { exn; _ }) -> raise exn
  | Error err ->
    Printf.printf "rolled back: %s\n" (Core.Txn.error_to_string err);
    session

let handle session line =
  let command, rest = split_command line in
  match command with
  | "" | "#" -> session
  | "help" ->
    print_endline help_text;
    session
  | "whoami" ->
    Printf.printf "%s (view: %d nodes)\n" (Core.Session.user session)
      (Core.View.visible_count (Core.Session.view session));
    session
  | "login" ->
    (try
       let session' =
         Core.Session.login (Core.Session.policy session)
           (Core.Session.source session) ~user:rest
       in
       Printf.printf "now %s (view: %d nodes)\n" rest
         (Core.View.visible_count (Core.Session.view session'));
       session'
     with Core.Session.Unknown_user u ->
       Printf.printf "unknown user %s\n" u;
       session)
  | "view" ->
    let view = Core.Session.view session in
    (match rest with
     | "" | "tree" -> print_string (Xmldoc.Xml_print.tree_view view)
     | "xml" -> print_endline (Xmldoc.Xml_print.to_string ~indent:true view)
     | "facts" -> print_endline (Xmldoc.Xml_print.facts view)
     | other -> Printf.printf "unknown rendering %s\n" other);
    session
  | "query" ->
    let ids = Core.Session.query session rest in
    let view = Core.Session.view session in
    List.iter
      (fun id ->
        Printf.printf "%-12s %s\n" (Ordpath.to_string id)
          (Xmldoc.Xml_print.subtree_to_string view id))
      ids;
    Printf.printf "%d node(s)\n" (List.length ids);
    session
  | "rename" ->
    let path, label = split_arg rest in
    run_secure session (Xupdate.Op.rename path label)
  | "update" ->
    let path, label = split_arg rest in
    run_secure session (Xupdate.Op.update path label)
  | "remove" -> run_secure session (Xupdate.Op.remove rest)
  | "append" | "insert-before" | "insert-after" ->
    let path, xml = split_arg rest in
    let tree = Xmldoc.Xml_parse.fragment_of_string xml in
    let op =
      match command with
      | "append" -> Xupdate.Op.append path tree
      | "insert-before" -> Xupdate.Op.insert_before path tree
      | _ -> Xupdate.Op.insert_after path tree
    in
    run_secure session op
  | "explain" ->
    let ids = Core.Session.query_source session rest in
    if ids = [] then print_endline "no node selected"
    else List.iter (fun id -> print_string (Core.Explain.describe session id)) ids;
    session
  | "compare" ->
    let comparison = Baselines.Metrics.compare_models session in
    print_endline Baselines.Metrics.header;
    Format.printf "%a@." Baselines.Metrics.pp comparison;
    session
  | "save" ->
    let oc = open_out rest in
    output_string oc
      (Xmldoc.Xml_print.to_string ~indent:true (Core.Session.source session));
    close_out oc;
    Printf.printf "wrote %s\n" rest;
    session
  | other ->
    Printf.printf "unknown command %s (try help)\n" other;
    session

exception Quit

let run session ic ~prompt =
  let session = ref session in
  (try
     while true do
       if prompt then begin
         Printf.printf "%s> " (Core.Session.user !session);
         flush stdout
       end;
       match input_line ic with
       | exception End_of_file -> raise Quit
       | "quit" | "exit" -> raise Quit
       | line ->
         (try session := handle !session line with
          | Xpath.Parser.Error msg | Xpath.Eval.Error msg ->
            Printf.printf "error: %s\n" msg
          | Xmldoc.Xml_parse.Error _ as e ->
            Printf.printf "error: %s\n"
              (Option.value ~default:"XML parse error"
                 (Xmldoc.Xml_parse.error_to_string e))
          | Sys_error msg -> Printf.printf "error: %s\n" msg)
     done
   with Quit -> ());
  !session
