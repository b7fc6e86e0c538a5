// Package figure1 holds the paper's Fig. 1 household as data: three users,
// Emily's favourite, the four user-defined words and ten rules of the
// control scenario, and the contextual priority orders of Fig. 7.
// cmd/scenario replays it against the simulated home; the per-home heap
// gates seed hub homes with it.
package figure1

// User is a household member with their favourite keywords.
type User struct {
	Name      string
	Favorites []string
}

// Users are the household, in registration order.
var Users = []User{
	{Name: "tom"},
	{Name: "alan"},
	{Name: "emily", Favorites: []string{"roman holiday"}},
}

// Submission is one CADEL command and the user who submits it.
type Submission struct {
	Source, Owner string
}

// Submissions are the four word definitions and then the ten rules, in
// submission order.
var Submissions = []Submission{
	{"Let's call the condition that temperature is higher than 26 degrees and humidity is higher than 65 percent hot and stuffy", "tom"},
	{"Let's call the condition that temperature is higher than 25 degrees and humidity is higher than 60 percent muggy", "alan"},
	{"Let's call the condition that temperature is higher than 29 degrees and humidity is higher than 75 percent sticky", "emily"},
	{"Let's call the configuration that 50 percent of brightness setting half-lighting", "tom"},
	{"In the evening, if i am in the living room, play the stereo with jazz of mode setting and 40 percent of volume setting.", "tom"},
	{"When i am in the living room, turn on the floor lamp with half-lighting.", "tom"},
	{"If i am in the living room and hot and stuffy, turn on the air conditioner at the living room with 25 degrees of temperature setting and 60 percent of humidity setting.", "tom"},
	{"If i am in the living room and a baseball game is on air, turn on the tv with 1 of channel setting.", "alan"},
	{"If emily is in the living room and a baseball game is on air, record the video recorder.", "alan"},
	{"If i am in the living room and muggy, turn on the air conditioner at the living room with 24 degrees of temperature setting and 55 percent of humidity setting.", "alan"},
	{"If i am in the living room and my favorite movie is on air, turn on the tv with 3 of channel setting.", "emily"},
	{"When i am in the living room and my favorite movie is on air, play the stereo with movie of mode setting.", "emily"},
	{"When i am in the living room and my favorite movie is on air, turn on the fluorescent light.", "emily"},
	{"If i am in the living room and sticky, turn on the air conditioner at the living room with 27 degrees of temperature setting and 65 percent of humidity setting.", "emily"},
}

// Order is a contextual priority order: on Device, while Context holds,
// Users rank highest first.
type Order struct {
	Device, Context string
	Users           []string
}

// Orders are the contextual priority orders of Fig. 7.
var Orders = []Order{
	{"tv", "alan got home from work", []string{"alan", "tom", "emily"}},
	{"tv", "emily got home from shopping", []string{"emily", "alan", "tom"}},
	{"stereo", "emily got home from shopping", []string{"emily", "tom", "alan"}},
	{"air conditioner", "alan got home from work", []string{"alan", "tom", "emily"}},
	{"air conditioner", "emily got home from shopping", []string{"emily", "alan", "tom"}},
}
